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
 * quantity is either associative (integer sums, max, xor) or computed
 * from an order-independent retained set (MergeStat), so `sim_*`
 * metrics replay bit-identically.
 */

#ifndef SENTRY_FLEET_SHARD_HH
#define SENTRY_FLEET_SHARD_HH

#include <atomic>
#include <cstdint>
#include <string>
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

    unsigned workers() const
    {
        return static_cast<unsigned>(ranges_.size());
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
 * Streaming fleet aggregation for one shard: fixed-size regardless of
 * how many devices fold into it. Sample stats are bounded MergeStat
 * reservoirs, counters are integer sums, and only the first
 * MAX_FAILURE_DETAIL failed devices (lowest indices) keep their full
 * DeviceResult. merge() is written so that folding devices in index
 * order within shards and merging shards in index order reproduces
 * the legacy whole-fleet aggregation bit for bit.
 */
struct ShardAccumulator
{
    std::uint64_t devices = 0;

    MergeStat unlock{MergeStat::DEFAULT_CAP};
    MergeStat lock{MergeStat::DEFAULT_CAP};
    MergeStat filebench{MergeStat::DEFAULT_CAP};

    std::uint64_t steps = 0;
    std::uint64_t audits = 0;
    std::uint64_t auditFailures = 0;
    std::uint64_t failedDevices = 0;
    std::uint64_t attacks = 0;
    std::uint64_t sensitiveProbes = 0;
    std::uint64_t sensitiveLeaks = 0;
    std::uint64_t nonSensitiveLeaks = 0;
    std::uint64_t failedUnlocks = 0;
    std::uint64_t faultsServiced = 0;
    std::uint64_t bytesEncryptedOnLock = 0;
    std::uint64_t bytesDecryptedOnDemand = 0;
    std::uint64_t bytesDecryptedEager = 0;
    std::uint64_t cyclesTotal = 0;
    std::uint64_t cyclesMax = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t busReads = 0;
    std::uint64_t busWrites = 0;
    // Defense-backend differential sums (all zero under the default
    // Sentry backend on a passing fleet).
    std::uint64_t defenseClaimBreaches = 0;
    std::uint64_t defenseVulnerableHits = 0;
    std::uint64_t defenseRekeys = 0;
    std::uint64_t defenseEvictions = 0;
    double defenseExtraSeconds = 0.0;
    double defenseExtraJoules = 0.0;
    std::uint64_t seedHash = 0; //!< xor-fold of per-device seed mixes
    probe::TraceCounters trace;

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
