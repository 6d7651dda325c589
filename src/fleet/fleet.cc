#include "fleet/fleet.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/stats.hh"

namespace sentry::fleet
{

namespace
{

/** printf into a string as long as the text needs. */
[[gnu::format(printf, 1, 2)]] std::string
strprintf(const char *fmt, ...)
{
    std::va_list args, again;
    va_start(args, fmt);
    va_copy(again, args);
    const int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out(static_cast<std::size_t>(std::max(len, 0)), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, again);
    va_end(again);
    return out;
}

/** @return @p text as a JSON string literal, quotes included. */
std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += strprintf("\\u%04x", static_cast<unsigned>(c));
        } else {
            out += c;
        }
    }
    return out + '"';
}

void
validateOptions(const FleetOptions &options)
{
    if (options.devices < 1 || options.devices > MAX_DEVICES)
        throw std::invalid_argument(
            "fleet device count " + std::to_string(options.devices) +
            " out of range (1.." + std::to_string(MAX_DEVICES) + ")");
    if (options.threads < 1 || options.threads > MAX_THREADS)
        throw std::invalid_argument(
            "fleet thread count " + std::to_string(options.threads) +
            " out of range (1.." + std::to_string(MAX_THREADS) + ")");
    if (options.shards > MAX_SHARDS)
        throw std::invalid_argument(
            "fleet shard count " + std::to_string(options.shards) +
            " out of range (0.." + std::to_string(MAX_SHARDS) + ")");
    checkDramBytes(options.dramBytes);
}

} // namespace

std::vector<FleetMetric>
buildMetrics(const ShardAccumulator &total, const ShardPlan &plan,
             core::DefenseKind defense)
{
    std::vector<FleetMetric> m;
    m.push_back(FleetMetric::ofInt("sim_devices", total.devices));
    m.push_back(
        FleetMetric::ofInt("sim_devices_failed", total.failedDevices));
    const DeviceResult &totals = total.totals;
    std::uint64_t retained = 0;
    forEachCounter([&](const DeviceCounter &row, auto field) {
        using Field = decltype(field);
        if constexpr (std::is_same_v<Field, DeviceSamples>) {
            const MergeStat &stat = totals.*field.stat;
            retained += stat.retained();
            if (row.metric != nullptr)
                m.push_back(FleetMetric::ofInt(row.metric, stat.count()));
            if (field.percentiles != nullptr) {
                for (const auto &[tag, p] : {std::pair{"_p50_us", 50.0},
                                             {"_p95_us", 95.0},
                                             {"_p99_us", 99.0}})
                    m.push_back(FleetMetric::ofDouble(
                        field.percentiles + std::string(tag),
                        stat.percentile(p) * 1e6));
            }
            if (field.mean != nullptr)
                m.push_back(FleetMetric::ofDouble(field.mean, stat.mean()));
        } else if constexpr (std::is_same_v<Field, TraceSum>) {
            m.push_back(
                FleetMetric::ofInt(row.metric, field.of(totals.trace)));
        } else if constexpr (std::is_same_v<Field, ExactDouble>) {
            m.push_back(FleetMetric::ofDouble(
                row.metric, (total.exact.*field.total).value()));
        } else {
            m.push_back(FleetMetric::ofInt(row.metric, totals.*field));
        }
    });
    m.push_back(FleetMetric::ofInt("sim_cycles_max", total.cyclesMax));
    m.push_back(FleetMetric::ofInt("sim_device_seed_hash", total.seedHash));
    // Streaming-engine layout: all deterministic (retained counts are
    // pure functions of the sample multiset — see MergeStat).
    m.push_back(FleetMetric::ofInt("sim_shard_count", plan.shardCount));
    m.push_back(FleetMetric::ofInt("sim_shard_size", plan.shardSize));
    m.push_back(
        FleetMetric::ofInt("sim_shard_sample_cap", MergeStat::DEFAULT_CAP));
    m.push_back(FleetMetric::ofInt("sim_shard_samples_retained", retained));
    // The defense backend the fleet ran (core/defense_backend.hh); its
    // verdict counters and costs are DEVICE_COUNTERS rows.
    m.push_back(FleetMetric::ofInt("sim_defense_kind",
                                   static_cast<unsigned>(defense)));
    return m;
}

FleetMetric
FleetMetric::ofInt(std::string name, std::uint64_t value)
{
    FleetMetric metric;
    metric.name = std::move(name);
    metric.isInt = true;
    metric.u = value;
    return metric;
}

FleetMetric
FleetMetric::ofDouble(std::string name, double value)
{
    FleetMetric metric;
    metric.name = std::move(name);
    metric.isInt = false;
    metric.d = value;
    return metric;
}

std::string
FleetMetric::jsonValue() const
{
    return isInt ? std::to_string(u) : strprintf("%.17g", d);
}

const FleetMetric *
FleetReport::find(const std::string &name) const
{
    for (const FleetMetric &metric : metrics) {
        if (metric.name == name)
            return &metric;
    }
    return nullptr;
}

double
percentile(std::vector<double> samples, double p)
{
    RunningStat stat;
    for (double sample : samples)
        stat.add(sample);
    return stat.percentile(p);
}

std::string
FleetReport::summary() const
{
    std::string out = strprintf(
        "fleet: %u device(s) x scenario '%s', %u thread(s), %u shard(s), "
        "seed 0x%llx\n",
        devices, scenario.c_str(), threads, shards,
        static_cast<unsigned long long>(seed));
    for (const DeviceResult &result : failures)
        out += strprintf("  device %u FAILED: %s\n", result.index,
                          result.error.c_str());
    if (failedDevices > failures.size())
        out += strprintf("  ... and %llu more failure(s)\n",
                          static_cast<unsigned long long>(
                              failedDevices - failures.size()));
    out += strprintf(
        "  invariants: %s (%llu/%u devices green)\n",
        allOk ? "all green" : "VIOLATED",
        static_cast<unsigned long long>(devices - failedDevices), devices);
    for (const FleetMetric &metric : metrics)
        out += strprintf("  %-36s %s\n", metric.name.c_str(),
                          metric.jsonValue().c_str());
    out += strprintf("  host: %.3f s, %.1f devices/s\n", hostSeconds,
                      hostSeconds > 0 ? devices / hostSeconds : 0.0);
    return out;
}

bool
FleetReport::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\n  \"bench\": \"fleet\",\n");
    std::fprintf(f, "  \"scenario\": %s,\n", jsonString(scenario).c_str());
    std::fprintf(f, "  \"host_wall_seconds\": %.6f,\n", hostSeconds);
    std::fprintf(f, "  \"metrics\": {");
    bool first = true;
    const auto emit = [&](const std::string &key,
                          const std::string &value) {
        std::fprintf(f, "%s\n    \"%s\": %s", first ? "" : ",",
                     key.c_str(), value.c_str());
        first = false;
    };
    for (const FleetMetric &metric : metrics)
        emit(metric.name, metric.jsonValue());
    emit("threads", std::to_string(threads));
    emit("host_devices_per_sec",
         strprintf("%.17g", hostSeconds > 0 ? devices / hostSeconds : 0.0));
    std::fprintf(f, "\n  }\n}\n");
    return std::fclose(f) == 0;
}

void
applyPins(const Pins &pins, Scenario &scenario, SpawnMode &spawn)
{
    if (pins.platform)
        scenario.platform = pins.platform;
    if (pins.defense)
        scenario.defense = pins.defense;
    if (pins.spawn)
        spawn = *pins.spawn;
}

FleetOptions
resolveFleetOptions(const Scenario &scenario, const FleetOptions &options)
{
    validateOptions(options);
    FleetOptions effective = options;
    effective.platform = scenario.platform.value_or(options.platform);
    effective.auditEveryStep =
        scenario.auditEveryStep.value_or(options.auditEveryStep);
    effective.defense = scenario.defense.value_or(options.defense);
    if (effective.shards == 0)
        effective.shards = scenario.defaultShards;
    if (effective.spawnMode == SpawnMode::Snapshot &&
        !effective.templateSnapshot)
        effective.templateSnapshot =
            makeFleetTemplate(scenario, effective);
    return effective;
}

FleetReport
runFleet(const Scenario &scenario, const FleetOptions &options)
{
    const FleetOptions effective = resolveFleetOptions(scenario, options);
    const ShardPlan plan =
        planShards(effective.devices, effective.shards);

    const auto t0 = std::chrono::steady_clock::now();

    // Per-shard accumulators, each written by exactly one worker (the
    // one that claimed the shard), merged below in shard-index order.
    std::vector<ShardAccumulator> accumulators(plan.shardCount);
    std::vector<DeviceResult> results(
        effective.retainResults ? effective.devices : 0);

    fanOut(plan.shardCount, effective.threads,
           [&](unsigned shard, DevicePool &pool) {
               ShardAccumulator &acc = accumulators[shard];
               for (unsigned i = plan.begin(shard); i < plan.end(shard);
                    ++i) {
                   DeviceResult result =
                       runDevice(scenario, effective, i, &pool);
                   acc.fold(result);
                   if (effective.retainResults)
                       results[i] = std::move(result);
               }
           });

    // Canonical merge: shard-index order, independent of which worker
    // ran what when.
    ShardAccumulator total;
    for (const ShardAccumulator &acc : accumulators)
        total.merge(acc);

    FleetReport report;
    report.scenario = scenario.name;
    report.devices = effective.devices;
    report.threads = effective.threads;
    report.shards = plan.shardCount;
    report.seed = effective.seed;
    report.hostSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    report.allOk = total.failedDevices == 0;
    report.failedDevices = total.failedDevices;
    report.failures = std::move(total.failures);
    report.results = std::move(results);
    report.metrics = buildMetrics(total, plan, effective.defense);
    return report;
}

DeviceResult
replayFleetDevice(const Scenario &scenario, const FleetOptions &options,
                  unsigned index)
{
    if (index >= options.devices)
        throw std::invalid_argument(
            "replay device index " + std::to_string(index) +
            " out of range (fleet has " + std::to_string(options.devices) +
            " devices)");
    const FleetOptions effective = resolveFleetOptions(scenario, options);
    return runDevice(scenario, effective, index);
}

} // namespace sentry::fleet
