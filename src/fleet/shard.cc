#include "fleet/shard.hh"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <type_traits>

namespace sentry::fleet
{

namespace
{

/** Default shard granularity when the caller does not pin a count:
 * enough shards that chunked stealing can rebalance skewed scenarios,
 * few enough that per-shard accumulator memory stays negligible. */
constexpr unsigned DEFAULT_SHARDS = 256;

constexpr std::uint64_t pack(std::uint64_t begin, std::uint64_t end)
{
    return (begin << 32) | end;
}

constexpr std::uint32_t spanBegin(std::uint64_t span)
{
    return static_cast<std::uint32_t>(span >> 32);
}

constexpr std::uint32_t spanEnd(std::uint64_t span)
{
    return static_cast<std::uint32_t>(span);
}

} // namespace

ShardPlan
planShards(unsigned devices, unsigned requestedShards)
{
    ShardPlan plan;
    plan.devices = devices;
    if (devices == 0) {
        plan.shardCount = 0;
        plan.shardSize = 1;
        return plan;
    }
    const unsigned count = requestedShards != 0
                               ? std::min(requestedShards, devices)
                               : std::min(devices, DEFAULT_SHARDS);
    plan.shardSize = (devices + count - 1) / count;
    // Ceil-sized shards can leave trailing shards empty; shrink the
    // count so every shard holds at least one device.
    plan.shardCount = (devices + plan.shardSize - 1) / plan.shardSize;
    return plan;
}

WorkQueue::WorkQueue(unsigned shardCount, unsigned workers)
    : ranges_(workers == 0 ? 1 : workers)
{
    // Contiguous spans, remainder spread over the first workers — the
    // initial split is deterministic; only steals depend on timing.
    const unsigned n = static_cast<unsigned>(ranges_.size());
    const unsigned per = shardCount / n;
    const unsigned extra = shardCount % n;
    unsigned begin = 0;
    for (unsigned w = 0; w < n; ++w) {
        const unsigned len = per + (w < extra ? 1 : 0);
        ranges_[w].span.store(pack(begin, begin + len),
                              std::memory_order_relaxed);
        begin += len;
    }
}

bool
WorkQueue::tryPop(Range &range, unsigned &shard)
{
    std::uint64_t span = range.span.load();
    for (;;) {
        const std::uint32_t b = spanBegin(span);
        const std::uint32_t e = spanEnd(span);
        if (b >= e)
            return false;
        if (range.span.compare_exchange_weak(span, pack(b + 1, e))) {
            shard = b;
            return true;
        }
    }
}

bool
WorkQueue::next(unsigned worker, unsigned &shard)
{
    if (tryPop(ranges_[worker], shard))
        return true;
    for (;;) {
        // Steal from the victim with the most remaining shards. A span
        // holding a single shard is not stealable: its owner will run
        // it, which is what guarantees every shard executes exactly
        // once and the loop below terminates.
        unsigned victim = 0;
        std::uint64_t victimSpan = 0;
        std::uint32_t victimRemaining = 1;
        for (unsigned w = 0; w < ranges_.size(); ++w) {
            if (w == worker)
                continue;
            const std::uint64_t span = ranges_[w].span.load();
            const std::uint32_t b = spanBegin(span);
            const std::uint32_t e = spanEnd(span);
            if (e > b && e - b > victimRemaining) {
                victim = w;
                victimSpan = span;
                victimRemaining = e - b;
            }
        }
        if (victimRemaining < 2)
            return false;
        const std::uint32_t b = spanBegin(victimSpan);
        const std::uint32_t e = spanEnd(victimSpan);
        // Take the back half [mid, e); the victim keeps [b, mid). The
        // CAS publishes the split atomically, so each shard index stays
        // owned by exactly one span at all times.
        const std::uint32_t mid = b + (e - b + 1) / 2;
        if (!ranges_[victim].span.compare_exchange_strong(victimSpan,
                                                          pack(b, mid)))
            continue; // victim moved on — rescan
        steals_.fetch_add(1, std::memory_order_relaxed);
        // Our own span is empty (nobody else refills it), so a plain
        // store cannot race a concurrent pop or steal.
        shard = mid;
        ranges_[worker].span.store(pack(mid + 1, e));
        return true;
    }
}

std::uint64_t
fanOut(unsigned items, unsigned threads,
       const std::function<void(unsigned item, DevicePool &pool)> &work)
{
    const unsigned workers = std::min(threads, items);
    WorkQueue queue(items, workers);
    const auto drain = [&](unsigned worker) {
        DevicePool pool;
        unsigned item = 0;
        while (queue.next(worker, item))
            work(item, pool);
    };
    if (workers <= 1) {
        drain(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(drain, w);
        for (std::thread &thread : pool)
            thread.join();
    }
    return queue.steals();
}

namespace
{

/** Add @p part's DEVICE_COUNTERS values (a device's or a shard's
 * totals) into @p totals; @p addExact(row) adds an ExactDouble row. */
template <typename AddExact>
void
addCounters(DeviceResult &totals, const DeviceResult &part,
            AddExact &&addExact)
{
    forEachCounter([&](const DeviceCounter &, auto field) {
        using Field = decltype(field);
        if constexpr (std::is_same_v<Field, DeviceSamples>) {
            (totals.*field.stat).merge(part.*field.stat);
        } else if constexpr (std::is_same_v<Field, TraceSum>) {
            // Unrolled, so the null slots fold away at compile time.
#pragma GCC unroll 4
            for (std::uint64_t TraceCounters::*member : field.fields) {
                if (member != nullptr)
                    totals.trace.*member += part.trace.*member;
            }
        } else if constexpr (std::is_same_v<Field, ExactDouble>) {
            addExact(field);
        } else {
            totals.*field += part.*field;
        }
    });
}

} // namespace

ShardAccumulator::ShardAccumulator()
{
    forEachCounter([&](const DeviceCounter &, auto field) {
        if constexpr (std::is_same_v<decltype(field), DeviceSamples>)
            totals.*field.stat = MergeStat(MergeStat::DEFAULT_CAP);
    });
}

void
ShardAccumulator::fold(const DeviceResult &result)
{
    ++devices;
    addCounters(totals, result, [&](const ExactDouble &row) {
        (exact.*row.total).add(result.*row.field);
    });
    cyclesMax = std::max<std::uint64_t>(cyclesMax, result.simCycles);
    seedHash ^= result.seed * 0x2545f4914f6cdd1dULL;
    if (!result.ok) {
        ++failedDevices;
        // Devices fold in index order, so pushing keeps `failures`
        // sorted and the cap keeps the K lowest indices of this shard.
        if (failures.size() < MAX_FAILURE_DETAIL)
            failures.push_back(result);
    }
}

void
ShardAccumulator::merge(const ShardAccumulator &other)
{
    devices += other.devices;
    failedDevices += other.failedDevices;
    addCounters(totals, other.totals, [&](const ExactDouble &row) {
        (exact.*row.total).merge(other.exact.*row.total);
    });
    cyclesMax = std::max(cyclesMax, other.cyclesMax);
    seedHash ^= other.seedHash;
    // Index-merge two sorted failure lists and keep the K lowest
    // indices: bottom-K of a union equals bottom-K of the parts'
    // bottom-K sets, so failure detail is merge-order independent too.
    std::vector<DeviceResult> combined;
    combined.reserve(failures.size() + other.failures.size());
    std::merge(failures.begin(), failures.end(), other.failures.begin(),
               other.failures.end(), std::back_inserter(combined),
               [](const DeviceResult &a, const DeviceResult &b) {
                   return a.index < b.index;
               });
    if (combined.size() > MAX_FAILURE_DETAIL)
        combined.resize(MAX_FAILURE_DETAIL);
    failures = std::move(combined);
}

namespace
{

void
digestAppend(std::string &out, const char *key, const std::string &value)
{
    out += key;
    out += '=';
    out += value;
    out += ';';
}

void
digestAppendU64(std::string &out, const char *key, std::uint64_t value)
{
    digestAppend(out, key, std::to_string(value));
}

void
digestAppendF(std::string &out, const char *key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    digestAppend(out, key, buf);
}

void
digestAppendStat(std::string &out, const char *key, const MergeStat &stat)
{
    out += key;
    out += "={n=";
    out += std::to_string(stat.count());
    for (double value : stat.sortedValues()) {
        char buf[64];
        std::snprintf(buf, sizeof buf, ",%.17g", value);
        out += buf;
    }
    out += "};";
}

} // namespace

std::string
deviceDigest(const DeviceResult &result)
{
    std::string text;
    text.reserve(1024);
    digestAppendU64(text, "index", result.index);
    digestAppendU64(text, "seed", result.seed);
    digestAppendU64(text, "ok", result.ok ? 1 : 0);
    digestAppend(text, "error", result.error);
    forEachCounter([&](const DeviceCounter &row, auto field) {
        using Field = decltype(field);
        if (row.digestKey == nullptr)
            return;
        if constexpr (std::is_same_v<Field, DeviceSamples>)
            digestAppendStat(text, row.digestKey, result.*field.stat);
        else if constexpr (std::is_same_v<Field, TraceSum>)
            digestAppendU64(text, row.digestKey, field.of(result.trace));
        else if constexpr (std::is_same_v<Field, ExactDouble>)
            digestAppendF(text, row.digestKey, result.*field.field);
        else
            digestAppendU64(text, row.digestKey, result.*field);
    });
    digestAppend(text, "trace", result.trace.summary());
    digestAppendF(text, "joules", result.trace.joules);
    digestAppendF(text, "kcryptd_stall_s", result.trace.kcryptdStallSeconds);
    digestAppendU64(text, "fault_firings", result.faultFirings);
    digestAppendU64(text, "fault_bit_flips", result.faultBitFlips);
    digestAppendU64(text, "power_glitched", result.powerGlitched ? 1 : 0);
    digestAppend(text, "fault_digest", result.faultDigest);

    std::uint64_t hash = 0xcbf29ce484222325ULL; // FNV-1a 64
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

} // namespace sentry::fleet
