#include "fleet/shard.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <type_traits>

namespace sentry::fleet
{

namespace
{

/** Default shard granularity when the caller does not pin a count:
 * enough shards that the workers' claims balance skewed scenarios,
 * few enough that per-shard accumulator memory stays negligible. */
constexpr unsigned DEFAULT_SHARDS = 256;

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

void
fanOut(unsigned items, unsigned threads,
       const std::function<void(unsigned item, DevicePool &pool)> &work)
{
    const unsigned workers = std::min(threads, items);
    // 64 bits, so the claims past the last item cannot wrap to item 0.
    std::atomic<std::uint64_t> next{0};
    const auto drain = [&] {
        DevicePool pool;
        std::uint64_t item = 0;
        while ((item = next.fetch_add(1, std::memory_order_relaxed)) < items)
            work(static_cast<unsigned>(item), pool);
    };
    if (workers <= 1) {
        drain();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(drain);
        for (std::thread &thread : pool)
            thread.join();
    }
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
