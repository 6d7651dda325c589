/**
 * @file
 * Sharding primitives of the SentryFleet worker/dispatcher engine.
 *
 * The dispatcher (runFleet's main thread) splits the device index
 * space into shards — contiguous ranges whose boundaries are a pure
 * function of the device count (never the thread count) — and hands
 * each worker a contiguous span of shard indices. Workers pop shards
 * from the front of their own span; a worker that runs dry steals the
 * back *half* of the most-loaded victim's remaining span (chunked
 * stealing, never single indices), so skewed scenarios rebalance in
 * O(log shards) steals instead of contending on one global counter.
 *
 * Determinism by construction: each shard is executed start-to-finish
 * by exactly one worker (devices in index order), results fold into
 * that shard's ShardAccumulator, and the dispatcher merges the
 * accumulators in shard-index order once all workers join. The merge
 * tree therefore depends only on (devices, shard count) — identical
 * for any thread count and any steal schedule — and every merged
 * quantity is either associative (integer sums, exact double sums, max,
 * xor) or computed from an order-independent retained set (MergeStat),
 * so `sim_*` metrics replay bit-identically.
 */

#ifndef SENTRY_FLEET_SHARD_HH
#define SENTRY_FLEET_SHARD_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "fleet/device_runner.hh"

namespace sentry::fleet
{

/** Failed devices per shard retained with full DeviceResult detail. */
constexpr unsigned MAX_FAILURE_DETAIL = 8;

/** Deterministic partition of device indices into contiguous shards. */
struct ShardPlan
{
    unsigned devices = 0;
    unsigned shardCount = 1;
    unsigned shardSize = 1; //!< devices per shard (last may be short)

    /** @return first device index of @p shard. */
    unsigned
    begin(unsigned shard) const
    {
        return shard * shardSize;
    }

    /** @return one-past-last device index of @p shard. */
    unsigned
    end(unsigned shard) const
    {
        const unsigned hi = (shard + 1) * shardSize;
        return hi < devices ? hi : devices;
    }
};

/**
 * Plan shards for @p devices. @p requestedShards pins the count
 * (clamped to the device count); 0 derives a default from the device
 * count ALONE — thread counts must never leak into shard boundaries,
 * or the per-shard merge tree (and with it floating-point `sim_*`
 * metrics past the reservoir cap) would vary across machines.
 */
ShardPlan planShards(unsigned devices, unsigned requestedShards);

/**
 * Work-stealing shard queue: one contiguous [begin,end) span of shard
 * indices per worker, packed into a single atomic word so both the
 * owner's front-pop and a thief's back-half split are lock-free CAS
 * updates. Safe for concurrent next() calls from all workers.
 */
class WorkQueue
{
  public:
    WorkQueue(unsigned shardCount, unsigned workers);

    /**
     * Claim the next shard for @p worker: pop the front of its own
     * span, else steal the back half of the most-loaded victim and pop
     * from that. @return false when no shard anywhere is claimable
     * (spans with one remaining shard belong to their owner).
     */
    bool next(unsigned worker, unsigned &shard);

    /** @return number of successful steals (host-side diagnostics). */
    std::uint64_t steals() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

  private:
    /** One worker's remaining span, packed begin<<32 | end. */
    struct alignas(64) Range
    {
        std::atomic<std::uint64_t> span{0};
    };

    bool tryPop(Range &range, unsigned &shard);

    std::vector<Range> ranges_;
    std::atomic<std::uint64_t> steals_{0};
};

/**
 * Run @p work(item, pool) for every item in [0, @p items) on
 * min(@p threads, @p items) workers claiming items from one WorkQueue;
 * @p pool is the worker's own. One worker runs on the calling thread.
 * @return the queue's steal count
 */
std::uint64_t fanOut(
    unsigned items, unsigned threads,
    const std::function<void(unsigned item, DevicePool &pool)> &work);

/**
 * The samples a DEVICE_COUNTERS row aggregates. The row prints their
 * count under its `metric`; these keys (each optional) print more.
 */
struct DeviceSamples
{
    MergeStat DeviceResult::*stat;
    /** Stem of `<stem>_p50_us`, `_p95_us` and `_p99_us` (seconds). */
    const char *percentiles;
    const char *mean; //!< key of the samples' mean
};

using probe::TraceCounters;

/** A trace total: the sum of up to four TraceCounters fields (unused
 * slots stay null). */
struct TraceSum
{
    std::array<std::uint64_t TraceCounters::*, 4> fields;

    /** @return the sum of the fields in @p trace. */
    constexpr std::uint64_t
    of(const TraceCounters &trace) const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t TraceCounters::*field : fields) {
            if (field != nullptr)
                sum += trace.*field;
        }
        return sum;
    }
};

/** The fleet totals of the DEVICE_COUNTERS rows that sum doubles. */
struct ExactTotals
{
    ExactSum defenseExtraSeconds;
    ExactSum defenseExtraJoules;
};

/** A double a DEVICE_COUNTERS row sums, and where its total lives. */
struct ExactDouble
{
    double DeviceResult::*field;
    ExactSum ExactTotals::*total;
};

/**
 * One fleet-aggregated DeviceResult value: the field, the `sim_*` key
 * of its fleet total (nullptr: none), and its deviceDigest key
 * (nullptr: not digested). Integers and trace sums add in 64 bits,
 * doubles add exactly and round once when the metrics are built,
 * samples merge their reservoirs.
 */
struct DeviceCounter
{
    const char *metric;
    const char *digestKey;
    std::variant<std::uint64_t DeviceResult::*, ExactDouble, DeviceSamples,
                 TraceSum>
        field;
};

/**
 * Every fleet-aggregated DeviceResult value, one row each. The shard
 * fold and merge, the fleet metrics and deviceDigest walk this table;
 * rows print their metrics in table order, and digested rows keep
 * deviceDigest's key order. Adding a counter touches its DeviceResult
 * field, one row, and the line in Runner::snapshot that sets it (and,
 * for a double, its ExactTotals field).
 */
inline constexpr std::array<DeviceCounter, 33> DEVICE_COUNTERS{{
    {"sim_steps_total", "steps", &DeviceResult::stepsExecuted},
    {"sim_audits_total", "audits", &DeviceResult::auditsRun},
    {"sim_audit_failures", "audit_failures", &DeviceResult::auditFailures},
    {"sim_unlocks_total", "unlock_s",
     DeviceSamples{&DeviceResult::unlock, "sim_unlock", nullptr}},
    {nullptr, "lock_s", DeviceSamples{&DeviceResult::lock, "sim_lock", nullptr}},
    {"sim_filebench_runs", "filebench_mbps",
     DeviceSamples{&DeviceResult::filebench, nullptr,
                   "sim_filebench_mbps_mean"}},
    {"sim_failed_unlocks", "failed_unlocks", &DeviceResult::failedUnlocks},
    {"sim_attacks_total", "attacks", &DeviceResult::attacksRun},
    {"sim_sensitive_probes", "probes", &DeviceResult::sensitiveSecretsProbed},
    {"sim_sensitive_leaks", "leaks", &DeviceResult::sensitiveSecretsLeaked},
    {"sim_nonsensitive_leaks", "nonsens_leaks",
     &DeviceResult::nonSensitiveLeaks},
    {"sim_faults_total", "faults", &DeviceResult::faultsServiced},
    {"sim_bytes_encrypted_on_lock", "bytes_enc",
     &DeviceResult::bytesEncryptedOnLock},
    {"sim_bytes_decrypted_on_demand", "bytes_ondemand",
     &DeviceResult::bytesDecryptedOnDemand},
    {"sim_bytes_decrypted_eager", "bytes_eager",
     &DeviceResult::bytesDecryptedEager},
    {"sim_cycles_total", "cycles", &DeviceResult::simCycles},
    {"sim_l2_hits_total", "l2_hits", &DeviceResult::l2Hits},
    {"sim_l2_misses_total", "l2_misses", &DeviceResult::l2Misses},
    {"sim_bus_reads_total", "bus_reads", &DeviceResult::busReads},
    {"sim_bus_writes_total", "bus_writes", &DeviceResult::busWrites},
    // deviceDigest renders the whole TraceCounters after the rows.
    {"sim_trace_mem_ops_total", nullptr,
     TraceSum{{&TraceCounters::dramReads, &TraceCounters::dramWrites,
               &TraceCounters::iramReads, &TraceCounters::iramWrites}}},
    {"sim_trace_bus_ops_total", nullptr,
     TraceSum{{&TraceCounters::busReads, &TraceCounters::busWrites}}},
    {"sim_trace_bus_bytes_total", nullptr,
     TraceSum{{&TraceCounters::busReadBytes, &TraceCounters::busWriteBytes}}},
    {"sim_trace_writebacks_total", nullptr,
     TraceSum{{&TraceCounters::cacheWritebacks}}},
    {"sim_trace_kcryptd_blocks_total", nullptr,
     TraceSum{{&TraceCounters::kcryptdBlocks}}},
    {"sim_trace_dma_bytes_total", nullptr,
     TraceSum{{&TraceCounters::dmaBytes}}},
    {"sim_trace_power_events_total", nullptr,
     TraceSum{{&TraceCounters::powerEvents}}},
    // Defense-backend differentials (core/defense_backend.hh), all zero
    // under the Sentry backend on a passing fleet.
    {"sim_defense_claim_breaches", nullptr,
     &DeviceResult::defenseClaimBreaches},
    {"sim_defense_vulnerable_hits", nullptr,
     &DeviceResult::defenseVulnerableHits},
    {"sim_defense_rekeys", nullptr, &DeviceResult::defenseRekeys},
    {"sim_defense_evictions", nullptr, &DeviceResult::defenseEvictions},
    {"sim_defense_extra_seconds", nullptr,
     ExactDouble{&DeviceResult::defenseExtraSeconds,
                 &ExactTotals::defenseExtraSeconds}},
    {"sim_defense_extra_joules", nullptr,
     ExactDouble{&DeviceResult::defenseExtraJoules,
                 &ExactTotals::defenseExtraJoules}},
}};

/**
 * Call @p visit(row, field) for each DEVICE_COUNTERS row in table
 * order, @p field being the row's alternative. The walk unrolls at
 * compile time, so each call inlines to its own row's loads and adds:
 * the per-device fold does no per-row dispatch.
 */
template <typename Visit>
void
forEachCounter(Visit &&visit)
{
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        (visit(DEVICE_COUNTERS[I],
               std::get<DEVICE_COUNTERS[I].field.index()>(
                   DEVICE_COUNTERS[I].field)),
         ...);
    }(std::make_index_sequence<DEVICE_COUNTERS.size()>{});
}

/**
 * Streaming fleet aggregation for one shard: bounded in size however
 * many devices fold into it. The DEVICE_COUNTERS totals are 64-bit
 * sums, exact double sums and bounded MergeStat reservoirs, and only
 * the first MAX_FAILURE_DETAIL failed devices (lowest indices) keep
 * their full DeviceResult. fold() and merge() commute and associate,
 * so no shard plan or merge order changes a total.
 */
struct ShardAccumulator
{
    ShardAccumulator();

    std::uint64_t devices = 0;
    std::uint64_t failedDevices = 0;
    std::uint64_t cyclesMax = 0;
    std::uint64_t seedHash = 0; //!< xor-fold of per-device seed mixes
    /** Each DEVICE_COUNTERS row's total, in the row's own field, with
     * fleet-sized reservoirs; the other fields stay unused, and the
     * rows that sum doubles keep their totals in `exact`. */
    DeviceResult totals;
    ExactTotals exact;

    /** First-K failed devices by index, full detail. */
    std::vector<DeviceResult> failures;

    /** Fold one finished device (call in index order within a shard). */
    void fold(const DeviceResult &result);

    /** Merge @p other (covering higher device indices) into this. */
    void merge(const ShardAccumulator &other);
};

/**
 * Canonical fingerprint of one device's deterministic results: every
 * simulated field rendered into a stable string and FNV-1a hashed.
 * `--replay-device N` re-runs one index and must reproduce the digest
 * the full-fleet run computed for that device.
 */
std::string deviceDigest(const DeviceResult &result);

} // namespace sentry::fleet

#endif // SENTRY_FLEET_SHARD_HH
