/**
 * @file
 * SentryFleet scaling benchmark: run the fleet-smoke scenario at 1, 4,
 * 16, and 64 devices, report devices/sec (host throughput of the
 * engine), and cross-check that the deterministic fleet metrics are
 * byte-identical between 1-thread and multi-thread execution — the
 * engine's replay guarantee.
 *
 * Every `sim_` metric is drift-checked against
 * bench/reference/BENCH_fleet.json by bench/run_benches.sh.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_util.hh"
#include "common/stats.hh"
#include "fleet/fleet.hh"
#include "fleet/scenario.hh"

using namespace sentry;

namespace
{

constexpr unsigned SCALES[] = {1, 4, 16, 64};

fleet::FleetOptions
baseOptions(unsigned devices, unsigned threads)
{
    fleet::FleetOptions options;
    options.devices = devices;
    options.threads = threads;
    options.seed = 0x5e47ee1dULL;
    return options;
}

/** Render a report's sim_ metrics as one comparable string. */
std::string
simFingerprint(const fleet::FleetReport &report)
{
    std::string out;
    for (const fleet::FleetMetric &metric : report.metrics) {
        if (metric.name.rfind("sim_", 0) == 0) {
            out += metric.name;
            out += '=';
            out += metric.jsonValue();
            out += '\n';
        }
    }
    return out;
}

/**
 * Boot-once spin-up: host cost of standing up one device, cold boot vs
 * COW fork, across growing DRAM models. Cold boot scales with the
 * memory model (DRAM init is O(size)); forking a snapshot only
 * re-threads COW page tables and small state, so it stays near-flat.
 * That sublinearity is what lets one warmed template fan out to
 * thousands of devices. Host timings carry no sim_ prefix — they are
 * machine-dependent and exempt from drift checks.
 */
void
spinUpSection(bench::Session &session)
{
    constexpr std::size_t SIZES_MIB[] = {16, 64, 256};
    constexpr unsigned COLD_REPS = 3, FORK_REPS = 24;
    std::printf("\nspin-up host cost per device (nexus4 model):\n");
    std::printf("%10s %14s %14s %10s\n", "dram", "cold boot ms",
                "fork ms", "ratio");
    for (std::size_t mib : SIZES_MIB) {
        const hw::PlatformConfig config =
            hw::PlatformConfig::nexus4(mib * MiB);
        const auto t0 = std::chrono::steady_clock::now();
        for (unsigned i = 0; i < COLD_REPS; ++i)
            core::Device device(config);
        const auto t1 = std::chrono::steady_clock::now();
        bench::WarmDevice warm(config);
        const auto t2 = std::chrono::steady_clock::now();
        for (unsigned i = 0; i < FORK_REPS; ++i)
            warm.fork();
        const auto t3 = std::chrono::steady_clock::now();
        const double coldMs =
            std::chrono::duration<double, std::milli>(t1 - t0).count() /
            COLD_REPS;
        const double forkMs =
            std::chrono::duration<double, std::milli>(t3 - t2).count() /
            FORK_REPS;
        std::printf("%7zuMiB %14.3f %14.3f %9.1fx\n", mib, coldMs,
                    forkMs, forkMs > 0.0 ? coldMs / forkMs : 0.0);
        const std::string tag = std::to_string(mib) + "mib";
        session.metric("host_spinup_cold_ms_" + tag, coldMs);
        session.metric("host_spinup_fork_ms_" + tag, forkMs);
    }
}

/**
 * Snapshot-mode fleet: the same 8-device fleet, but every device forks
 * one warmed template instead of cold-booting. Checks the replay
 * guarantee holds on the fork path too, and records the deterministic
 * metrics under sim_snap_* (drift-checked like any other sim metric).
 */
int
snapshotFleetSection(bench::Session &session,
                     const fleet::Scenario &scenario)
{
    fleet::FleetOptions serialOptions = baseOptions(8, 1);
    serialOptions.spawnMode = fleet::SpawnMode::Snapshot;
    fleet::FleetOptions threadedOptions = baseOptions(8, 4);
    threadedOptions.spawnMode = fleet::SpawnMode::Snapshot;

    const fleet::FleetReport serial =
        fleet::runFleet(scenario, serialOptions);
    const fleet::FleetReport threaded =
        fleet::runFleet(scenario, threadedOptions);
    if (!serial.allOk || !threaded.allOk) {
        std::fprintf(stderr,
                     "fleet: invariants violated in snapshot spawn "
                     "mode:\n%s",
                     (serial.allOk ? threaded : serial).summary().c_str());
        return 1;
    }
    const bool identical =
        simFingerprint(serial) == simFingerprint(threaded);
    const double rate = serial.hostSeconds > 0
                            ? 8 / serial.hostSeconds
                            : 0.0;
    std::printf("snapshot-mode fleet (8 devices, forked spawn): "
                "%.1f devices/s, 1-thread vs 4-thread %s\n",
                rate, identical ? "bit-identical" : "DIVERGED");
    if (!identical) {
        std::fprintf(stderr,
                     "fleet: snapshot spawn mode broke the replay "
                     "guarantee\n--- 1 thread ---\n%s--- 4 threads "
                     "---\n%s",
                     simFingerprint(serial).c_str(),
                     simFingerprint(threaded).c_str());
        return 1;
    }
    for (const fleet::FleetMetric &metric : serial.metrics) {
        if (metric.name.rfind("sim_", 0) == 0) {
            const std::string key =
                "sim_snap_" + metric.name.substr(4);
            if (metric.isInt)
                session.metric(key, metric.u);
            else
                session.metric(key, metric.d);
        }
    }
    session.metric("host_snap_devices_per_sec", rate);
    return 0;
}

/**
 * The ten-verb attack gauntlet: perfbench's attack_jobs job text at its
 * preset sizes (the seven live verbs, then the three cold-boot verbs)
 * on each defense backend, 8 snapshot-forked devices with 4 MiB of
 * DRAM. It is the one reference that runs the DMA and bus-monitor
 * verbs through the fleet runner on every backend, so their simulated
 * side (bus traffic, leak scores, breaches, cost ledgers) lands in the
 * record as sim_gauntlet_<backend>_* keys.
 */
int
gauntletSection(bench::Session &session)
{
    static const char GAUNTLET[] = R"(audits every_step
spawn wallet sensitive heap 128KiB
spawn leaky heap 64KiB
touch wallet 32KiB
lock
sleep 100ms
attack dma
attack bus_monitor
attack code_injection
attack prime_probe
attack evict_reload
attack rowhammer
attack tz_side_channel
attack cold_boot
attack os_reboot
attack 2s_reset frozen
)";
    std::printf("\nten-verb gauntlet (8 forked devices, 4 MiB DRAM):\n");
    for (const char *backend : {"sentry", "amnesia", "memshield"}) {
        const fleet::Scenario scenario = fleet::parseScenario(
            std::string("defense ") + backend + "\n" + GAUNTLET,
            std::string("gauntlet-") + backend);
        fleet::FleetOptions options = baseOptions(8, 1);
        options.spawnMode = fleet::SpawnMode::Snapshot;
        options.dramBytes = 4 * MiB;
        const fleet::FleetReport report =
            fleet::runFleet(scenario, options);
        if (!report.allOk) {
            std::fprintf(stderr,
                         "fleet: invariants violated in the %s "
                         "gauntlet:\n%s",
                         backend, report.summary().c_str());
            return 1;
        }
        std::printf("  %-9s %.3f host s\n", backend, report.hostSeconds);
        for (const fleet::FleetMetric &metric : report.metrics) {
            if (metric.name.rfind("sim_", 0) != 0)
                continue;
            const std::string key = std::string("sim_gauntlet_") +
                                    backend + "_" + metric.name.substr(4);
            if (metric.isInt)
                session.metric(key, metric.u);
            else
                session.metric(key, metric.d);
        }
    }
    return 0;
}

/**
 * Population scale: the fleet-scale preset (transition-only audits,
 * snapshot spawn, streaming aggregation) at 1k / 10k / 100k devices,
 * all forking one shared warmed template. The claim under test is
 * *flat per-device overhead*: worker-local device recycling plus
 * O(shards) accumulator memory keep the per-device host cost at 100k
 * within ~2x of the 1k point. The 100k run's sim_shard_* layout keys
 * land in the drift-checked record; per-device host-ns series carry no
 * sim_ prefix (machine-dependent).
 */
int
scaleSection(bench::Session &session)
{
    constexpr unsigned SCALE_POINTS[] = {1000, 10000, 100000};
    const fleet::Scenario scenario =
        fleet::builtinScenario("fleet-scale");
    const unsigned hostThreads =
        std::max(1u, std::min(8u, std::thread::hardware_concurrency()));

    // One template for every point: none of them pays the boot.
    fleet::FleetOptions templateOptions = baseOptions(1, 1);
    const auto snapshot =
        fleet::makeFleetTemplate(scenario, templateOptions);

    std::printf("\npopulation scale (fleet-scale scenario, snapshot "
                "spawn, streaming aggregation):\n");
    std::printf("%9s %9s %12s %16s\n", "devices", "shards", "host s",
                "per-device ns");
    double perDeviceNs1k = 0.0, perDeviceNs100k = 0.0;
    for (unsigned devices : SCALE_POINTS) {
        fleet::FleetOptions options = baseOptions(devices, hostThreads);
        options.spawnMode = fleet::SpawnMode::Snapshot;
        options.templateSnapshot = snapshot;
        options.retainResults = false;
        const fleet::FleetReport report =
            fleet::runFleet(scenario, options);
        if (!report.allOk) {
            std::fprintf(stderr,
                         "fleet: invariants violated at %u devices:\n%s",
                         devices, report.summary().c_str());
            return 1;
        }
        const double perDeviceNs =
            report.hostSeconds * 1e9 / static_cast<double>(devices);
        if (devices == SCALE_POINTS[0])
            perDeviceNs1k = perDeviceNs;
        if (devices == 100000)
            perDeviceNs100k = perDeviceNs;
        std::printf("%9u %9u %12.3f %16.0f\n", devices, report.shards,
                    report.hostSeconds, perDeviceNs);
        session.metric("host_per_device_ns_" + std::to_string(devices),
                       perDeviceNs);
        // Deterministic per-point spot checks (cheap drift tripwires
        // at population scale).
        const std::string tag = "sim_scale" + std::to_string(devices);
        const auto *cycles = report.find("sim_cycles_total");
        const auto *failedCount = report.find("sim_devices_failed");
        const auto *seedHash = report.find("sim_device_seed_hash");
        if (cycles != nullptr)
            session.metric(tag + "_cycles_total", cycles->u);
        if (failedCount != nullptr)
            session.metric(tag + "_devices_failed", failedCount->u);
        if (seedHash != nullptr)
            session.metric(tag + "_seed_hash", seedHash->u);
        if (devices == 100000) {
            // The streaming layout of the headline point, verbatim —
            // plus the defense-backend ledger, which must stay exact
            // across the shard fold/merge tree at population scale.
            for (const fleet::FleetMetric &metric : report.metrics) {
                if (metric.name.rfind("sim_shard_", 0) == 0)
                    session.metric(metric.name, metric.u);
                if (metric.name.rfind("sim_defense_", 0) == 0) {
                    if (metric.isInt)
                        session.metric(metric.name, metric.u);
                    else
                        session.metric(metric.name, metric.d);
                }
            }
        }
    }
    const double flatness =
        perDeviceNs1k > 0.0 ? perDeviceNs100k / perDeviceNs1k : 0.0;
    std::printf("per-device host cost, 100k vs 1k devices: %.2fx "
                "(flat-overhead target: <= 2x)\n",
                flatness);
    session.metric("host_scale_flatness_100k_vs_1k", flatness);
    return 0;
}

} // namespace

int
main()
{
    setQuiet(true);
    bench::Session session("fleet");
    bench::banner("SentryFleet scaling (fleet-smoke scenario)",
                  "devices/sec of the scenario engine; sim metrics are "
                  "thread-count independent");

    const fleet::Scenario scenario =
        fleet::builtinScenario("fleet-smoke");
    const unsigned hostThreads =
        std::max(1u, std::min(8u, std::thread::hardware_concurrency()));

    std::printf("%8s %10s %12s %14s %14s\n", "devices", "threads",
                "host s", "devices/s", "unlock p95 us");
    RunningStat devicesPerSec;
    for (unsigned devices : SCALES) {
        const fleet::FleetReport report =
            fleet::runFleet(scenario, baseOptions(devices, hostThreads));
        if (!report.allOk) {
            std::fprintf(stderr, "fleet: invariants violated at %u "
                                 "devices:\n%s",
                         devices, report.summary().c_str());
            return 1;
        }
        const fleet::FleetMetric *p95 = report.find("sim_unlock_p95_us");
        const double rate = report.hostSeconds > 0
                                ? devices / report.hostSeconds
                                : 0.0;
        devicesPerSec.add(rate);
        std::printf("%8u %10u %12.3f %14.1f %14.2f\n", devices,
                    report.threads, report.hostSeconds, rate,
                    p95 != nullptr ? p95->d : 0.0);

        std::string tag = "n";
        tag += std::to_string(devices);
        for (const fleet::FleetMetric &metric : report.metrics) {
            if (metric.name.rfind("sim_", 0) == 0) {
                const std::string key =
                    "sim_" + tag + "_" + metric.name.substr(4);
                if (metric.isInt)
                    session.metric(key, metric.u);
                else
                    session.metric(key, metric.d);
            }
        }
        session.metric("host_" + tag + "_devices_per_sec", rate);
    }
    std::printf("host devices/s across scales: p50 %.1f  p95 %.1f  "
                "p99 %.1f\n",
                devicesPerSec.p50(), devicesPerSec.p95(),
                devicesPerSec.p99());

    // Replay guarantee: same seed => byte-identical sim metrics no
    // matter how many worker threads executed the fleet.
    const fleet::FleetReport serial =
        fleet::runFleet(scenario, baseOptions(8, 1));
    const fleet::FleetReport threaded =
        fleet::runFleet(scenario, baseOptions(8, 4));
    const bool identical =
        simFingerprint(serial) == simFingerprint(threaded);
    std::printf("\n1-thread vs 4-thread sim metrics: %s\n",
                identical ? "bit-identical" : "DIVERGED");
    if (!identical) {
        std::fprintf(stderr,
                     "fleet: thread count changed deterministic "
                     "metrics\n--- 1 thread ---\n%s--- 4 threads ---\n%s",
                     simFingerprint(serial).c_str(),
                     simFingerprint(threaded).c_str());
        return 1;
    }

    // Kernel-tier parity: the same fleet pinned to the portable tier
    // must reproduce every deterministic metric byte for byte — the
    // accelerated kernels change host wall-clock only. The active- and
    // portable-tier host times land in the record (drift check asserts
    // their presence; values are machine-dependent).
    host::setActiveKernelsForTest(&host::portableKernels());
    const fleet::FleetReport portableRun =
        fleet::runFleet(scenario, baseOptions(8, 1));
    host::setActiveKernelsForTest(nullptr);
    const bool tierIdentical =
        simFingerprint(serial) == simFingerprint(portableRun);
    std::printf("active tier (%s) vs portable tier sim metrics: %s "
                "(host %.3fs vs %.3fs)\n",
                host::kernels().aes.tier,
                tierIdentical ? "bit-identical" : "DIVERGED",
                serial.hostSeconds, portableRun.hostSeconds);
    if (!tierIdentical) {
        std::fprintf(stderr,
                     "fleet: kernel tier changed deterministic "
                     "metrics\n--- active ---\n%s--- portable ---\n%s",
                     simFingerprint(serial).c_str(),
                     simFingerprint(portableRun).c_str());
        return 1;
    }
    session.metric("host_wall_tier_active_seconds", serial.hostSeconds);
    session.metric("host_wall_tier_portable_seconds",
                   portableRun.hostSeconds);

    if (const int rc = snapshotFleetSection(session, scenario); rc != 0)
        return rc;
    if (const int rc = gauntletSection(session); rc != 0)
        return rc;
    spinUpSection(session);
    if (const int rc = scaleSection(session); rc != 0)
        return rc;

    return 0;
}
