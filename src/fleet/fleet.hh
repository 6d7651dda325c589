/**
 * @file
 * SentryFleet engine: run N independent simulated devices through one
 * scenario on a worker/dispatcher pool and aggregate their
 * deterministic metrics in streaming fashion.
 *
 * Concurrency model (see shard.hh): the dispatcher — runFleet's
 * calling thread — parses nothing and simulates nothing; it plans
 * device-index shards, seeds a work-stealing queue, and starts N
 * workers. Every device is a share-nothing hw::Soc + os::Kernel +
 * core::Sentry stack built and driven entirely on one worker thread
 * (see device_runner.hh); a worker claims whole shards (stealing half
 * a loaded victim's remaining span when it runs dry), folds each
 * finished device into the shard's ShardAccumulator, and recycles one
 * resident Device across all its snapshot-mode runs. The dispatcher
 * merges the per-shard accumulators in shard-index order after the
 * join, so fleet memory is O(shards), not O(devices), and metrics are
 * byte-identical for any thread count or steal schedule — the
 * determinism tests assert exactly that.
 *
 * Metric naming follows bench_util.hh: `sim_` prefixed values are
 * deterministic simulation quantities (drift-checked against committed
 * references by bench/run_benches.sh); host-side quantities carry no
 * prefix.
 */

#ifndef SENTRY_FLEET_FLEET_HH
#define SENTRY_FLEET_FLEET_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fleet/device_runner.hh"
#include "fleet/scenario.hh"
#include "fleet/shard.hh"

namespace sentry::fleet
{

/** One aggregated metric (integer or floating point). */
struct FleetMetric
{
    std::string name;
    bool isInt = false;
    std::uint64_t u = 0;
    double d = 0.0;

    static FleetMetric ofInt(std::string name, std::uint64_t value);
    static FleetMetric ofDouble(std::string name, double value);

    /** @return the JSON literal for this metric's value. */
    std::string jsonValue() const;
};

/** Aggregated outcome of one fleet run. */
struct FleetReport
{
    std::string scenario;
    unsigned devices = 0;
    unsigned threads = 0;
    unsigned shards = 0; //!< shard count the engine planned
    std::uint64_t seed = 0;
    double hostSeconds = 0.0;
    /** Successful work steals (host scheduling artifact — never part
     * of the drift-checked `sim_` metrics). */
    std::uint64_t steals = 0;

    /** True when every device finished with all invariants green. */
    bool allOk = false;
    /** Devices whose run ended not-ok (failure count is exact even
     * when per-device detail is bounded). */
    std::uint64_t failedDevices = 0;
    /** The MAX_FAILURE_DETAIL lowest-index failures, full detail. */
    std::vector<DeviceResult> failures;

    /** Per device, index order — populated only when
     * FleetOptions::retainResults (the default); empty in streaming
     * population-scale runs. Aggregates never read this vector. */
    std::vector<DeviceResult> results;
    std::vector<FleetMetric> metrics; //!< aggregates, fixed order

    /** @return the metric named @p name, or nullptr. */
    const FleetMetric *find(const std::string &name) const;

    /** @return a printable multi-line run summary. */
    std::string summary() const;

    /**
     * Write the BENCH_fleet.json-style record.
     * @return false when the file cannot be written
     */
    bool writeJson(const std::string &path) const;
};

/**
 * The fleet's metrics from the merged accumulator @p total, in a fixed
 * order: the device counts, every DEVICE_COUNTERS row in table order,
 * then the fleet-wide values and the `sim_shard_*` keys, which document
 * the (deterministic) streaming layout of @p plan.
 */
std::vector<FleetMetric> buildMetrics(const ShardAccumulator &total,
                                      const ShardPlan &plan,
                                      core::DefenseKind defense);

/**
 * Nearest-rank percentile of @p samples (p in [0,100]); 0 when empty.
 * Sorts a copy; deterministic for any sample order.
 */
double percentile(std::vector<double> samples, double p);

/** Device choices pinned on the command line; unset = not pinned. */
struct Pins
{
    std::optional<FleetPlatform> platform;
    std::optional<core::DefenseKind> defense;
    std::optional<SpawnMode> spawn;
};

/**
 * The precedence rule of sentry_fleet, a sentry_fuzz campaign and a
 * `--schedule` replay: each pin overwrites @p scenario's directive, or
 * @p spawn (FleetOptions::spawnMode or a reproducer's `spawn` line).
 * resolveFleetOptions then applies the directives over the defaults:
 * a flag beats a directive, which beats the default.
 */
void applyPins(const Pins &pins, Scenario &scenario, SpawnMode &spawn);

/**
 * Resolve the options a fleet run actually executes with: scenario
 * directives (platform, shards, audits, defense) applied over
 * @p options, and a template snapshot built when Snapshot mode has
 * none. runFleet and replayFleetDevice resolve identically — that is
 * what makes a replay bit-identical to the device's in-fleet run.
 * @throws std::invalid_argument on out-of-range options
 */
FleetOptions resolveFleetOptions(const Scenario &scenario,
                                 const FleetOptions &options);

/**
 * Run @p scenario on a fleet.
 * @throws std::invalid_argument on out-of-range options (device count,
 *         thread count, shard count, DRAM size)
 */
FleetReport runFleet(const Scenario &scenario, const FleetOptions &options);

/**
 * Re-run the single device @p index exactly as a full fleet run would
 * have (same resolved options, same derived seed) — deviceDigest() of
 * the result matches the digest of that device in the fleet. The
 * `--replay-device` path: reproduce any one device of a 100k run
 * without re-running the other 99999.
 * @throws std::invalid_argument when @p index or options are out of
 *         range
 */
DeviceResult replayFleetDevice(const Scenario &scenario,
                               const FleetOptions &options, unsigned index);

} // namespace sentry::fleet

#endif // SENTRY_FLEET_FLEET_HH
