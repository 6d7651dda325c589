/**
 * @file
 * Shared helpers for the reproduction benchmarks: headers, repeated
 * trials with mean/stddev (the paper runs every experiment >= 10
 * times), consistent row formatting, and the machine-readable
 * BENCH_<name>.json record every benchmark emits (see README.md,
 * "Benchmark JSON records").
 */

#ifndef SENTRY_BENCH_UTIL_HH
#define SENTRY_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "core/device.hh"
#include "host/kernels.hh"
#include "hw/soc.hh"

namespace sentry::bench
{

/**
 * One benchmark run's machine-readable record.
 *
 * Construct at the top of main(); add metrics as results are produced;
 * the destructor writes `BENCH_<name>.json` into the current directory
 * (override with the SENTRY_BENCH_JSON_DIR environment variable). The
 * record always carries `host_wall_seconds` for the whole process.
 *
 * Naming convention: metrics prefixed `sim_` are *deterministic*
 * simulation quantities (cycles, cache counters, byte counts, hashes)
 * — bench/run_benches.sh compares exactly those against the committed
 * reference records and fails on any drift. Host-side quantities
 * (wall-clock, MB/s of the host) must not carry the prefix.
 */
class Session
{
  public:
    explicit Session(std::string name)
        : name_(std::move(name)), start_(std::chrono::steady_clock::now())
    {}

    ~Session()
    {
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start_)
                .count();
        const char *dir = std::getenv("SENTRY_BENCH_JSON_DIR");
        const std::string path = (dir != nullptr && dir[0] != '\0')
                                     ? std::string(dir) + "/BENCH_" + name_ +
                                           ".json"
                                     : "BENCH_" + name_ + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
            return;
        }
        std::fprintf(f, "{\n  \"bench\": \"%s\",\n", name_.c_str());
        std::fprintf(f, "  \"host_wall_seconds\": %.6f,\n", wall);
        // Also surface the wall time inside metrics{}: the perf-smoke
        // driver checks host_wall_* keys for presence (never value), so
        // a bench silently losing its timing shows up as drift.
        {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.6f", wall);
            entries_.emplace_back("host_wall_seconds", buf);
        }
        // Every record carries the host CPU features and active kernel
        // tiers, so a perf regression can be traced to the tier that
        // produced the numbers (run_benches.sh asserts presence).
        std::string features = "\"";
        features += host::hostFeaturesKey();
        features += '"';
        entries_.emplace_back("host_cpu_features", features);
        std::fprintf(f, "  \"metrics\": {");
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            std::fprintf(f, "%s\n    \"%s\": %s", i == 0 ? "" : ",",
                         entries_[i].first.c_str(),
                         entries_[i].second.c_str());
        }
        std::fprintf(f, "\n  }\n}\n");
        std::fclose(f);
    }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Record a floating-point metric. */
    void
    metric(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        entries_.emplace_back(key, buf);
    }

    /** Record an integer metric (sim counters, cycle totals). */
    void
    metric(const std::string &key, std::uint64_t value)
    {
        entries_.emplace_back(key, std::to_string(value));
    }

    /** Record a string metric (placements, hashes). */
    void
    metric(const std::string &key, const std::string &value)
    {
        entries_.emplace_back(key, "\"" + value + "\"");
    }

    /**
     * Record a machine's deterministic counters: simulated cycles plus
     * the full L2Stats and bus totals, all under the `sim_` prefix
     * (optionally namespaced as `sim_<tag>_...`).
     */
    void
    socStats(hw::Soc &soc, const std::string &tag = "")
    {
        const std::string p =
            tag.empty() ? std::string("sim_") : "sim_" + tag + "_";
        metric(p + "cycles", static_cast<std::uint64_t>(soc.clock().now()));
        const hw::L2Stats &l2 = soc.l2().stats();
        metric(p + "l2_hits", l2.hits);
        metric(p + "l2_misses", l2.misses);
        metric(p + "l2_fills", l2.fills);
        metric(p + "l2_writebacks", l2.writebacks);
        metric(p + "l2_uncached", l2.uncachedAccesses);
        const hw::BusStats &bus = soc.bus().stats();
        metric(p + "bus_reads", bus.reads);
        metric(p + "bus_writes", bus.writes);
    }

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    std::vector<std::pair<std::string, std::string>> entries_;
};

/** Print the benchmark banner. */
inline void
banner(const char *experiment, const char *caption)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", experiment);
    std::printf("%s\n", caption);
    std::printf("==============================================================\n");
}

/** Run @p trial @p n times, collecting one sample per run. */
inline RunningStat
repeat(unsigned n, const std::function<double()> &trial)
{
    RunningStat stat;
    for (unsigned i = 0; i < n; ++i)
        stat.add(trial());
    return stat;
}

/** Default trial count (matches the paper's "at least ten times"). */
constexpr unsigned TRIALS = 10;

/**
 * Boot-once / fork-per-trial helper: constructs one template device,
 * runs @p warm on it (populate apps, lock the screen, ...), snapshots
 * it, and hands out a freshly forked device per trial. The fork
 * overwrites one reused target, so per-trial cost is the COW fork, not
 * a device boot — the simulated results are bit-identical to
 * cold-booting every trial (tests/test_snapshot_fork.cc proves it).
 */
class WarmDevice
{
  public:
    WarmDevice(const hw::PlatformConfig &config,
               core::SentryOptions options = {},
               const std::function<void(core::Device &)> &warm = {})
        : target_(config, options)
    {
        core::Device templ(config, options);
        if (warm)
            warm(templ);
        snapshot_ = templ.snapshot();
    }

    /** @return the reused target device, freshly forked from the warm
     * snapshot (any state from the previous trial is discarded). */
    core::Device &
    fork()
    {
        target_.forkFrom(*snapshot_);
        return target_;
    }

    /** @return the warm checkpoint (shareable across threads). */
    const std::shared_ptr<const core::DeviceSnapshot> &
    snapshot() const
    {
        return snapshot_;
    }

  private:
    core::Device target_;
    std::shared_ptr<const core::DeviceSnapshot> snapshot_;
};

} // namespace sentry::bench

#endif // SENTRY_BENCH_UTIL_HH
