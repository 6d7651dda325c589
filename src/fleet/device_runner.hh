/**
 * @file
 * One fleet device: a fully independent hw::Soc + os::Kernel +
 * core::Sentry stack driven step-by-step through a parsed Scenario.
 *
 * The runner is share-nothing: it owns every simulated object it
 * touches and holds no references to other devices, so any number of
 * runners may execute concurrently on different threads (see fleet.hh).
 * Per-device randomness derives from a seed the engine computes from
 * the fleet seed and the device index, making every run bit-replayable.
 *
 * After every step the runner asserts Sentry's invariants with
 * core::InvariantChecker (volatile key on-SoC only, no decrypted sensitive
 * page in DRAM while locked, flush-way mask covers locked ways, no
 * plaintext markers in DRAM, freed pages scrubbed). Attack steps assert
 * the paper's Table 3 result instead: a locked device must not leak a
 * sensitive process's secret to the attacker.
 */

#ifndef SENTRY_FLEET_DEVICE_RUNNER_HH
#define SENTRY_FLEET_DEVICE_RUNNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/trace_engine.hh"
#include "common/types.hh"
#include "fleet/scenario.hh"

namespace sentry::fault
{
struct FaultSchedule;
}

namespace sentry::core
{
class Device;
struct DeviceSnapshot;
}

namespace sentry::fleet
{

/** How each fleet device comes to life. */
enum class SpawnMode
{
    ColdBoot, //!< construct and boot every device from scratch
    /** Boot one warmed template, checkpoint it, and fork every device
     * from the shared copy-on-write snapshot (much cheaper per device;
     * all devices share the template's boot-time state). */
    Snapshot,
};

/** Engine knobs shared by every device of a fleet run. */
struct FleetOptions
{
    unsigned devices = 1;               //!< fleet size
    unsigned threads = 1;               //!< worker threads
    /** Shard count for the worker/dispatcher engine; 0 derives a
     * default from the device count alone (see planShards). */
    unsigned shards = 0;
    /**
     * Keep every DeviceResult in FleetReport::results. The default
     * preserves the legacy API; population-scale runs switch it off so
     * fleet memory is O(shards), not O(devices) — aggregates, failure
     * detail, and `--replay-device` cover what the vector was for.
     */
    bool retainResults = true;
    std::uint64_t seed = 0x5e47ee1dULL; //!< fleet seed
    FleetPlatform platform = FleetPlatform::Tegra3;
    /** Defense backend every device runs (see core::DefenseKind); the
     * default routes bit-identically through the legacy Sentry path. */
    core::DefenseKind defense = core::DefenseKind::Sentry;
    /** Per-device DRAM; small keeps audits and attacks fast. */
    std::size_t dramBytes = 16 * MiB;
    /** Run the full security audit after every step (vs attacks only). */
    bool auditEveryStep = true;
    /**
     * FaultSim schedule armed on every device (nullptr/empty = no
     * injection). Each device seeds its injector from its device seed,
     * so a fleet run with faults stays bit-replayable.
     */
    const fault::FaultSchedule *faultSchedule = nullptr;
    /**
     * When non-empty, device 0 records its full trace-point timeline
     * and writes it here as chrome://tracing JSON (one device only:
     * timelines of concurrent devices would interleave meaninglessly).
     */
    std::string traceOutPath{};
    /** Spawn path for every device (see SpawnMode). */
    SpawnMode spawnMode = SpawnMode::ColdBoot;
    /**
     * Warmed image every device forks from when spawnMode is Snapshot.
     * runFleet() builds one via makeFleetTemplate() when left null;
     * callers may supply their own (e.g. one template reused across
     * many fleet runs). Immutable — safe to share between threads.
     */
    std::shared_ptr<const core::DeviceSnapshot> templateSnapshot{};
};

/**
 * Retained-sample bound of each per-device statistic. Scenarios are
 * short scripts (a handful of locks/unlocks/filebench steps), so in
 * practice every sample is retained and per-device percentiles stay
 * exact; a pathological scenario looping thousands of unlocks is
 * bounded here instead of growing a vector per device.
 */
constexpr std::size_t DEVICE_SAMPLE_CAP = 128;

/** Deterministic per-device results (everything simulated). */
struct DeviceResult
{
    unsigned index = 0;
    std::uint64_t seed = 0;

    bool ok = true;     //!< all invariants held, no semantic errors
    std::string error;  //!< first failure (empty when ok)
    // 64-bit: shard totals of DEVICE_COUNTERS live in a DeviceResult.
    std::uint64_t stepsExecuted = 0;
    std::uint64_t auditsRun = 0;
    std::uint64_t auditFailures = 0;

    /** Per successful unlock / per lock / per filebench step. Bounded
     * MergeStats (count() is the true event count; samples carry
     * samplePriority() weights so shard merges stay order-free). */
    MergeStat unlock{DEVICE_SAMPLE_CAP};
    MergeStat lock{DEVICE_SAMPLE_CAP};
    MergeStat filebench{DEVICE_SAMPLE_CAP};
    std::uint64_t failedUnlocks = 0;

    std::uint64_t attacksRun = 0;
    std::uint64_t sensitiveSecretsProbed = 0; //!< sensitive greps attempted
    std::uint64_t sensitiveSecretsLeaked = 0; //!< ...that succeeded (bad)
    std::uint64_t nonSensitiveLeaks = 0;      //!< unprotected greps that hit

    std::uint64_t faultsServiced = 0;
    std::uint64_t bytesEncryptedOnLock = 0;
    std::uint64_t bytesDecryptedOnDemand = 0;
    std::uint64_t bytesDecryptedEager = 0;
    Cycles simCycles = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t busReads = 0;
    std::uint64_t busWrites = 0;

    /** Trace-point totals from the device's CounterSink (all kinds). */
    probe::TraceCounters trace;

    // FaultSim (all zero/empty when no schedule was armed)
    std::uint64_t faultFirings = 0;  //!< scheduled faults that fired
    std::uint64_t faultBitFlips = 0; //!< memory bits corrupted
    bool powerGlitched = false;      //!< a power_glitch ended the run
    std::string faultDigest;         //!< injector replay fingerprint

    // Adversary suite v2 (all zero/empty when no v2 attack steps ran).
    // Deliberately NOT merged into shard/fleet aggregates — they feed
    // per-device replay digests, not population metrics.
    unsigned v2AttacksRun = 0;
    std::uint64_t v2LockedWaybacks = 0; //!< locked-way evictions (== 0)
    std::uint64_t v2RowhammerFlips = 0; //!< total disturbance flips
    std::uint64_t v2VictimRowFlips = 0; //!< ...that hit victim frames
    std::uint64_t v2RecoveredNibbles = 0; //!< TZ channel leakage
    std::string attackDigest; //!< " || "-joined AttackOutcome digests

    // Defense-backend differential results (core/defense_backend.hh).
    // Like the v2 counters these stay out of deviceDigest, so legacy
    // Sentry digests are untouched; the schedule digest is the parity
    // object the differential tests byte-compare across backends.
    unsigned defenseKind = 0; //!< core::DefenseKind the device ran
    /** Breaches of threats the backend claimed to defeat (fail). */
    std::uint64_t defenseClaimBreaches = 0;
    /** Breaches of threats the backend is openly vulnerable to
     * (expected; the run continues). */
    std::uint64_t defenseVulnerableHits = 0;
    std::uint64_t defenseRekeys = 0;    //!< working-key rekey events
    std::uint64_t defenseEvictions = 0; //!< working-set re-encrypts
    double defenseExtraSeconds = 0.0;   //!< backend latency overhead
    double defenseExtraJoules = 0.0;    //!< backend energy overhead
    /**
     * Backend-independent attack schedule fingerprint: one
     * `verb@line:priority` entry per attack step, derived purely from
     * the device seed and the step sequence — never from backend
     * behaviour — so the same scenario yields byte-identical digests
     * under every backend (only verdicts and costs may differ).
     */
    std::string scheduleDigest;
};

/**
 * Derive device @p index's seed from @p fleet_seed (SplitMix64 step —
 * consecutive indices give statistically independent streams).
 */
std::uint64_t fleetDeviceSeed(std::uint64_t fleet_seed, unsigned index);

/**
 * Deterministic reservoir priority for sample number @p ordinal of the
 * metric tagged @p salt on the device seeded @p device_seed. A pure
 * hash of its arguments: priorities — and therefore MergeStat retained
 * sets — depend only on which samples exist, never on aggregation
 * order, threads, or host state.
 */
std::uint64_t samplePriority(std::uint64_t device_seed, std::uint64_t salt,
                             std::uint64_t ordinal);

/**
 * One worker's recycled device. In Snapshot spawn mode runDevice
 * rebinds the resident Device to the template via forkFrom() instead
 * of constructing and destructing a full stack per device. Re-forking
 * the same template restores only what the previous device changed
 * (touched L2 sets, privatized DRAM/iRAM pages); the first fork of a
 * fresh Device, a different template, or a bulk L2 operation in the
 * previous device takes the full restore. Either way the recycled
 * device's forked state is bit-identical to a freshly constructed
 * one's (the RecycledFork and replay-digest tests cover this); its
 * construction-time constants, such as the TrustZone fuse, stay those
 * of the index it was built for. Cold-boot mode
 * ignores the pool: construction *is* the boot being measured there.
 */
struct DevicePool
{
    DevicePool();
    ~DevicePool();
    DevicePool(DevicePool &&) noexcept;
    DevicePool &operator=(DevicePool &&) noexcept;

    std::unique_ptr<core::Device> device;
};

/**
 * Boot one device the way Runner::boot does (platform from the
 * scenario/options, Sentry options from the scenario, crypto providers
 * registered) with the fleet seed, and checkpoint it. The result is
 * the Snapshot spawn mode's shared template.
 */
std::shared_ptr<const core::DeviceSnapshot>
makeFleetTemplate(const Scenario &scenario, const FleetOptions &options);

/**
 * Run one device through @p scenario. Never throws: failures are
 * reported via DeviceResult::ok / error. @p pool, when given, recycles
 * the worker's resident device across calls (Snapshot mode only).
 */
DeviceResult runDevice(const Scenario &scenario,
                       const FleetOptions &options, unsigned index,
                       DevicePool *pool = nullptr);

} // namespace sentry::fleet

#endif // SENTRY_FLEET_DEVICE_RUNNER_HH
