/**
 * @file
 * Worker/dispatcher engine coverage: MergeStat merge-order freedom and
 * reservoir accuracy, deterministic shard planning, WorkQueue
 * steal-half semantics (single-threaded unit + threaded hammer), the
 * DEVICE_COUNTERS table (merge-order freedom of every row, one row
 * moves only its own metrics, 64-bit totals), shard-count/thread-count
 * invariance of the fleet's sim_ metrics, and `--replay-device` digest
 * parity with the full-fleet run (recycled gauntlet devices included).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "fleet/fleet.hh"
#include "fleet/scenario.hh"
#include "fleet/shard.hh"
#include "gauntlet.hh"

using namespace sentry;
using namespace sentry::fleet;

namespace
{

class FleetShard : public testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
};

/** Deterministic sample set: value + its samplePriority weight. */
std::vector<MergeStat::Weighted>
makeSamples(std::size_t n, std::uint64_t seed)
{
    std::vector<MergeStat::Weighted> samples;
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t priority =
            samplePriority(seed, 0x7e57ULL, i);
        // Spread values over [0, 1000) deterministically.
        const double value =
            static_cast<double>(priority % 1000000) / 1000.0;
        samples.push_back({priority, value});
    }
    return samples;
}

/** Sim fingerprint without the sim_shard_* layout keys (those encode
 * the shard plan itself, which these tests vary on purpose). */
std::string
simFingerprintNoLayout(const FleetReport &report)
{
    std::string out;
    for (const FleetMetric &metric : report.metrics) {
        if (metric.name.rfind("sim_", 0) != 0)
            continue;
        if (metric.name.rfind("sim_shard_", 0) == 0)
            continue;
        out += metric.name + "=" + metric.jsonValue() + "\n";
    }
    return out;
}

/**
 * Give @p row's field in @p result a value made from @p salt: a double
 * that is not dyadic for real rows, so the order of a plain summation
 * would show in the last digit, and one sample (with its own priority)
 * for sample rows.
 */
void
setRow(DeviceResult &result, const DeviceCounter &row, std::uint64_t salt)
{
    std::visit(
        [&](auto field) {
            using Field = decltype(field);
            if constexpr (std::is_same_v<Field, DeviceSamples>) {
                MergeStat samples(DEVICE_SAMPLE_CAP);
                samples.add(0.001 * static_cast<double>(salt),
                            samplePriority(result.seed, salt, 0));
                result.*field.stat = samples;
            } else if constexpr (std::is_same_v<Field, TraceSum>) {
                for (std::uint64_t TraceCounters::*member : field.fields) {
                    if (member != nullptr)
                        result.trace.*member = salt++;
                }
            } else if constexpr (std::is_same_v<Field, ExactDouble>) {
                result.*field.field = 0.001 * static_cast<double>(salt);
            } else {
                result.*field = salt;
            }
        },
        row.field);
}

/** buildMetrics of @p acc as one `name=value` line per metric. */
std::string
metricText(const ShardAccumulator &acc, const ShardPlan &plan)
{
    std::string out;
    for (const FleetMetric &metric :
         buildMetrics(acc, plan, core::DefenseKind::Sentry))
        out += metric.name + "=" + metric.jsonValue() + "\n";
    return out;
}

} // namespace

TEST_F(FleetShard, MergeStatMatchesRunningStatWhileFullyRetained)
{
    const auto samples = makeSamples(500, 0xabcdULL);
    RunningStat exact;
    MergeStat merged(1024); // cap above the sample count
    for (const auto &w : samples) {
        exact.add(w.value);
        merged.add(w.value, w.priority);
    }
    EXPECT_EQ(merged.count(), 500u);
    EXPECT_EQ(merged.retained(), 500u);
    EXPECT_EQ(merged.min(), exact.min());
    EXPECT_EQ(merged.max(), exact.max());
    for (double p : {0.0, 25.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_EQ(merged.percentile(p), exact.percentile(p)) << p;
}

TEST_F(FleetShard, MergeStatIsMergeOrderIndependent)
{
    const auto samples = makeSamples(1000, 0x5eedULL);

    // Reference: one stat, insertion order.
    MergeStat reference(64);
    for (const auto &w : samples)
        reference.add(w.value, w.priority);

    // Partition into 7 parts, merge the parts in several shuffled
    // orders: every retained set, percentile, and extremum must match.
    std::mt19937 shuffler(42);
    for (int round = 0; round < 5; ++round) {
        std::vector<MergeStat> parts(7, MergeStat(64));
        for (std::size_t i = 0; i < samples.size(); ++i)
            parts[i % parts.size()].add(samples[i].value,
                                        samples[i].priority);
        std::shuffle(parts.begin(), parts.end(), shuffler);
        MergeStat combined(64);
        for (const MergeStat &part : parts)
            combined.merge(part);

        EXPECT_EQ(combined.count(), reference.count());
        EXPECT_EQ(combined.sortedValues(), reference.sortedValues());
        EXPECT_EQ(combined.min(), reference.min());
        EXPECT_EQ(combined.max(), reference.max());
        for (double p : {50.0, 95.0, 99.0})
            EXPECT_EQ(combined.percentile(p), reference.percentile(p));
    }
}

TEST_F(FleetShard, MergeStatReservoirPercentileErrorIsBounded)
{
    // 20k near-uniform samples through a 512-slot reservoir: the
    // subsample is selected by hashed priorities, so quantiles must
    // land near the exact ones (a loose 5-percentile-point bound —
    // the test pins accuracy, not luck).
    const std::size_t n = 20000;
    RunningStat exact;
    MergeStat reservoir(512);
    for (std::size_t i = 0; i < n; ++i) {
        const double value = static_cast<double>(i) / n * 100.0;
        exact.add(value);
        reservoir.add(value, samplePriority(0x0b5e55edULL, 1, i));
    }
    EXPECT_EQ(reservoir.count(), n);
    EXPECT_EQ(reservoir.retained(), 512u);
    EXPECT_EQ(reservoir.min(), exact.min());
    EXPECT_EQ(reservoir.max(), exact.max());
    for (double p : {10.0, 50.0, 90.0}) {
        EXPECT_NEAR(reservoir.percentile(p), exact.percentile(p), 5.0)
            << "p" << p;
    }
    // The mean keeps using the exact running sum past the cap.
    EXPECT_NEAR(reservoir.mean(), exact.mean(), 1e-9);
}

TEST_F(FleetShard, ExactSumRoundsTheExactSumOnce)
{
    // math.fsum's answers: a plain left fold gets each of these wrong.
    const auto sum = [](std::initializer_list<double> addends) {
        ExactSum exact;
        for (double x : addends)
            exact.add(x);
        return exact.value();
    };
    EXPECT_EQ(sum({0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}), 1.0);
    EXPECT_EQ(sum({1e16, 1.0, -1e16}), 1.0);
    EXPECT_EQ(sum({-1e16, 1e16, 1.0}), 1.0);
    // 1e16 + 1 is a tie that rounds to even; the 1e-16 breaks it up.
    EXPECT_EQ(sum({1e16, 1.0, 1e-16}), 10000000000000002.0);
    EXPECT_EQ(sum({1e-16, 1e16, 1.0}), 10000000000000002.0);
    EXPECT_EQ(sum({}), 0.0);

    // Any split into parts and any merge order give the same value.
    std::vector<double> addends;
    for (int i = 1; i <= 600; ++i)
        addends.push_back(0.001 * i * (i % 3 == 0 ? -1 : 1));
    ExactSum whole;
    for (double x : addends)
        whole.add(x);
    std::mt19937 shuffler(11);
    for (int round = 0; round < 5; ++round) {
        std::shuffle(addends.begin(), addends.end(), shuffler);
        std::vector<ExactSum> parts(7);
        for (std::size_t i = 0; i < addends.size(); ++i)
            parts[(i * 5 + round) % parts.size()].add(addends[i]);
        std::shuffle(parts.begin(), parts.end(), shuffler);
        ExactSum merged;
        for (const ExactSum &part : parts)
            merged.merge(part);
        EXPECT_EQ(merged.value(), whole.value()) << round;
    }
}

TEST_F(FleetShard, PlanShardsIsDeviceCountPureAndCoversAllIndices)
{
    for (unsigned devices : {1u, 2u, 7u, 256u, 1000u, 4096u}) {
        const ShardPlan plan = planShards(devices, 0);
        EXPECT_LE(plan.shardCount, std::min(devices, 256u));
        EXPECT_GE(plan.shardCount, 1u);
        unsigned covered = 0;
        for (unsigned s = 0; s < plan.shardCount; ++s) {
            EXPECT_LT(plan.begin(s), plan.end(s)) << "empty shard";
            EXPECT_EQ(plan.begin(s), covered);
            covered = plan.end(s);
        }
        EXPECT_EQ(covered, devices);
    }
    // A requested count is honoured (clamped to the device count).
    EXPECT_EQ(planShards(100, 10).shardCount, 10u);
    EXPECT_EQ(planShards(4, 64).shardCount, 4u);
    // Ceil-sizing never leaves a trailing empty shard.
    const ShardPlan plan = planShards(5, 4);
    EXPECT_EQ(plan.shardSize, 2u);
    EXPECT_EQ(plan.shardCount, 3u);
    EXPECT_EQ(plan.end(plan.shardCount - 1), 5u);
}

TEST_F(FleetShard, WorkQueueStealsHalfOfTheLoadedVictim)
{
    // Two workers, 8 shards: the constructor deals worker 0 [0,4) and
    // worker 1 [4,8). Once worker 1 drains its own span, its next
    // next() must steal the BACK HALF of worker 0's remainder in one
    // CAS — not migrate a single index.
    WorkQueue queue(8, 2);
    unsigned shard = 0;
    ASSERT_TRUE(queue.next(0, shard));
    EXPECT_EQ(shard, 0u); // owner pops its own front; keeps [1,4)
    for (unsigned expected = 4; expected < 8; ++expected) {
        ASSERT_TRUE(queue.next(1, shard));
        EXPECT_EQ(shard, expected); // worker 1 drains its own span
    }
    EXPECT_EQ(queue.steals(), 0u); // popping your own span never counts

    // Worker 0 still holds [1,4): 3 shards. The thief splits at
    // mid = 1 + ceil(3 / 2) = 3, taking [3,4) and popping shard 3.
    ASSERT_TRUE(queue.next(1, shard));
    EXPECT_EQ(shard, 3u);
    EXPECT_EQ(queue.steals(), 1u);

    // Worker 0 keeps the front half [1,3) and drains it in order.
    ASSERT_TRUE(queue.next(0, shard));
    EXPECT_EQ(shard, 1u);
    ASSERT_TRUE(queue.next(0, shard));
    EXPECT_EQ(shard, 2u);

    // Every shard came out exactly once; both workers now run dry.
    EXPECT_FALSE(queue.next(0, shard));
    EXPECT_FALSE(queue.next(1, shard));
}

TEST_F(FleetShard, WorkQueueHammerClaimsEveryShardExactlyOnce)
{
    // Skewed load: worker 0 owns most of the work but drains slowly;
    // the others must rebalance by stealing. Every shard must be
    // claimed exactly once regardless of interleaving.
    constexpr unsigned SHARDS = 503; // prime — uneven spans
    constexpr unsigned WORKERS = 4;
    WorkQueue queue(SHARDS, WORKERS);
    std::vector<std::vector<unsigned>> claimed(WORKERS);
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < WORKERS; ++w) {
        pool.emplace_back([&, w] {
            unsigned shard = 0;
            while (queue.next(w, shard)) {
                claimed[w].push_back(shard);
                if (w == 0) // the slow worker everyone steals from
                    std::this_thread::yield();
            }
        });
    }
    for (std::thread &t : pool)
        t.join();

    std::vector<unsigned> all;
    for (const auto &c : claimed)
        all.insert(all.end(), c.begin(), c.end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), SHARDS);
    for (unsigned s = 0; s < SHARDS; ++s)
        EXPECT_EQ(all[s], s);
}

TEST_F(FleetShard, ShardAccumulatorMergeIsOrderIndependent)
{
    // Synthetic devices with a distinct value in every DEVICE_COUNTERS
    // row (the three sample rows included), spread over 6 shards and
    // merged in shuffled orders: the whole metric list and the retained
    // failure list must match the canonical in-order merge.
    std::vector<DeviceResult> devices(60);
    for (unsigned i = 0; i < devices.size(); ++i) {
        DeviceResult &r = devices[i];
        r.index = i;
        r.seed = fleetDeviceSeed(7, i);
        for (std::size_t k = 0; k < DEVICE_COUNTERS.size(); ++k)
            setRow(r, DEVICE_COUNTERS[k], 1 + k * 1000 + i);
        if (i % 7 == 0) { // 9 failures — one past MAX_FAILURE_DETAIL
            r.ok = false;
            r.error = "synthetic failure " + std::to_string(i);
        }
    }
    const auto foldRange = [&](unsigned begin, unsigned end) {
        ShardAccumulator acc;
        for (unsigned i = begin; i < end; ++i)
            acc.fold(devices[i]);
        return acc;
    };
    std::vector<ShardAccumulator> shards;
    for (unsigned s = 0; s < 6; ++s)
        shards.push_back(foldRange(s * 10, (s + 1) * 10));

    ShardAccumulator canonical;
    for (const ShardAccumulator &acc : shards)
        canonical.merge(acc);
    const ShardPlan plan = planShards(60, 6);
    const std::string want = metricText(canonical, plan);

    std::mt19937 shuffler(7);
    std::vector<unsigned> order(shards.size());
    std::iota(order.begin(), order.end(), 0u);
    for (int round = 0; round < 5; ++round) {
        std::shuffle(order.begin(), order.end(), shuffler);
        ShardAccumulator shuffled;
        for (unsigned s : order)
            shuffled.merge(shards[s]);

        EXPECT_EQ(metricText(shuffled, plan), want);
        ASSERT_EQ(shuffled.failures.size(), canonical.failures.size());
        ASSERT_EQ(shuffled.failures.size(), MAX_FAILURE_DETAIL);
        for (std::size_t f = 0; f < shuffled.failures.size(); ++f)
            EXPECT_EQ(shuffled.failures[f].index,
                      canonical.failures[f].index);
        // First-K means the K *lowest* device indices.
        EXPECT_EQ(shuffled.failures.front().index, 0u);
        EXPECT_EQ(shuffled.failures.back().index,
                  (MAX_FAILURE_DETAIL - 1) * 7);
    }
}

TEST_F(FleetShard, EachCounterRowMovesOnlyItsOwnMetrics)
{
    // Change one row's field at a time: only that row's metrics may
    // move (and at least one must), and deviceDigest changes exactly
    // when the row has a digest key.
    const ShardPlan plan = planShards(1, 1);
    DeviceResult base;
    base.seed = fleetDeviceSeed(7, 0);
    for (std::size_t k = 0; k < DEVICE_COUNTERS.size(); ++k)
        setRow(base, DEVICE_COUNTERS[k], 1 + k * 1000);
    ShardAccumulator baseAcc;
    baseAcc.fold(base);
    const std::vector<FleetMetric> want =
        buildMetrics(baseAcc, plan, core::DefenseKind::Sentry);
    std::set<std::string> names;
    for (const FleetMetric &metric : want)
        EXPECT_TRUE(names.insert(metric.name).second) << metric.name;

    std::set<std::string> digestKeys;
    for (std::size_t k = 0; k < DEVICE_COUNTERS.size(); ++k) {
        const DeviceCounter &row = DEVICE_COUNTERS[k];
        SCOPED_TRACE(k);
        if (row.digestKey != nullptr) {
            EXPECT_TRUE(digestKeys.insert(row.digestKey).second);
        }
        DeviceResult bumped = base;
        setRow(bumped, row, 1 + k * 1000 + 500);
        ShardAccumulator acc;
        acc.fold(bumped);
        const std::vector<FleetMetric> got =
            buildMetrics(acc, plan, core::DefenseKind::Sentry);
        ASSERT_EQ(got.size(), want.size());

        std::set<std::string> own;
        if (row.metric != nullptr)
            own.insert(row.metric);
        if (const auto *samples = std::get_if<DeviceSamples>(&row.field)) {
            if (samples->percentiles != nullptr) {
                for (const char *tag : {"_p50_us", "_p95_us", "_p99_us"})
                    own.insert(std::string(samples->percentiles) + tag);
            }
            if (samples->mean != nullptr)
                own.insert(samples->mean);
        }
        // The fleet's one max rule sits beside the table.
        const auto *count =
            std::get_if<std::uint64_t DeviceResult::*>(&row.field);
        if (count != nullptr && *count == &DeviceResult::simCycles)
            own.insert("sim_cycles_max");
        std::set<std::string> moved;
        for (std::size_t m = 0; m < got.size(); ++m) {
            ASSERT_EQ(got[m].name, want[m].name);
            if (got[m].jsonValue() != want[m].jsonValue())
                moved.insert(got[m].name);
        }
        EXPECT_FALSE(moved.empty());
        for (const std::string &name : moved)
            EXPECT_TRUE(own.count(name)) << name << " moved";

        // A trace row's fields reach the digest through its whole
        // `trace` summary, which deviceDigest renders after the rows.
        const bool digested = row.digestKey != nullptr ||
                              std::holds_alternative<TraceSum>(row.field);
        EXPECT_EQ(deviceDigest(bumped) != deviceDigest(base), digested);
    }
}

TEST_F(FleetShard, CounterTotalsAreSixtyFourBit)
{
    // A million devices of a 5 000-step scenario sum more steps than 32
    // bits hold; two devices of 3e9 steps stand in for them.
    DeviceResult device;
    device.stepsExecuted = 3'000'000'000ULL;
    ShardAccumulator left, right;
    left.fold(device);
    right.fold(device);
    left.merge(right);
    const std::vector<FleetMetric> metrics =
        buildMetrics(left, planShards(2, 1), core::DefenseKind::Sentry);
    const auto steps = std::find_if(
        metrics.begin(), metrics.end(), [](const FleetMetric &metric) {
            return metric.name == "sim_steps_total";
        });
    ASSERT_NE(steps, metrics.end());
    EXPECT_EQ(steps->u, 6'000'000'000ULL);
}

TEST_F(FleetShard, ShardCountAndThreadCountDoNotChangeSimMetrics)
{
    // The jittered preset makes per-device randomness load-bearing, and
    // the attack campaign under Amnesia and MemShield sums the backends'
    // double-valued costs; vary the shard plan and worker count across
    // runs — everything except the sim_shard_* layout keys must stay
    // byte-identical.
    const std::pair<const char *, core::DefenseKind> runs[] = {
        {"interactive-day", core::DefenseKind::Sentry},
        {"attack-campaign", core::DefenseKind::Sentry},
        {"attack-campaign", core::DefenseKind::Amnesia},
        {"attack-campaign", core::DefenseKind::MemShield},
    };
    for (const auto &[preset, defense] : runs) {
        SCOPED_TRACE(std::string(preset) + " " +
                     core::defenseKindName(defense));
        const Scenario scenario = builtinScenario(preset);
        FleetOptions options;
        options.devices = 12;
        options.dramBytes = 8 * MiB;
        options.defense = defense;

        options.threads = 1;
        options.shards = 1;
        const FleetReport reference = runFleet(scenario, options);
        ASSERT_TRUE(reference.allOk) << reference.summary();
        const std::string want = simFingerprintNoLayout(reference);

        for (const auto &[threads, shards] :
             {std::pair{1u, 12u}, {3u, 5u}, {4u, 12u}, {2u, 0u}}) {
            options.threads = threads;
            options.shards = shards;
            const FleetReport got = runFleet(scenario, options);
            EXPECT_EQ(simFingerprintNoLayout(got), want)
                << threads << " threads, " << shards << " shards";
        }
    }
}

TEST_F(FleetShard, StreamingRunMatchesRetainedRun)
{
    // retainResults off must change memory, not metrics — and failure
    // accounting must survive without the per-device vector.
    const Scenario scenario = parseScenario(
        "spawn mail sensitive\nlock\ntouch mail\n", "bad-touch");
    FleetOptions options;
    options.devices = 10;
    options.threads = 2;
    options.dramBytes = 8 * MiB;

    const FleetReport retained = runFleet(scenario, options);
    options.retainResults = false;
    const FleetReport streaming = runFleet(scenario, options);

    EXPECT_EQ(streaming.results.size(), 0u);
    EXPECT_EQ(retained.results.size(), 10u);
    EXPECT_FALSE(streaming.allOk);
    EXPECT_EQ(streaming.failedDevices, 10u);
    ASSERT_EQ(streaming.failures.size(), MAX_FAILURE_DETAIL);
    for (unsigned f = 0; f < MAX_FAILURE_DETAIL; ++f)
        EXPECT_EQ(streaming.failures[f].index, f);
    std::string wantMetrics, gotMetrics;
    for (const FleetMetric &m : retained.metrics)
        wantMetrics += m.name + "=" + m.jsonValue() + "\n";
    for (const FleetMetric &m : streaming.metrics)
        gotMetrics += m.name + "=" + m.jsonValue() + "\n";
    EXPECT_EQ(gotMetrics, wantMetrics);
}

TEST_F(FleetShard, ReplayDeviceMatchesInFleetDigest)
{
    // More devices than threads: all but each worker's first index run
    // on a recycled device, re-forked from the template in proportion
    // to what its previous device changed, while every replay forks a
    // freshly constructed device. The gauntlet runs on one worker, so
    // each recycled target ran all ten verbs (secure-world entries,
    // cold-boot resets, each backend's engine and key state).
    struct Case
    {
        std::string name;
        Scenario scenario;
        FleetOptions options;
    };
    std::vector<Case> cases;
    for (const char *preset :
         {"interactive-day", "fleet-scale", "attack-campaign"}) {
        FleetOptions options;
        options.devices = 8;
        options.threads = 2;
        options.dramBytes = 8 * MiB;
        options.spawnMode = SpawnMode::Snapshot;
        cases.push_back({preset, builtinScenario(preset), options});
    }
    const Scenario gauntlet = test::tenVerbGauntlet();
    for (const FleetPlatform platform :
         {FleetPlatform::Tegra3, FleetPlatform::Nexus4}) {
        for (const core::DefenseKind defense :
             {core::DefenseKind::Sentry, core::DefenseKind::Amnesia,
              core::DefenseKind::MemShield}) {
            FleetOptions options;
            options.devices = 8;
            options.threads = 1;
            options.platform = platform;
            options.defense = defense;
            options.dramBytes = 4 * MiB;
            options.spawnMode = SpawnMode::Snapshot;
            cases.push_back(
                {std::string("gauntlet ") +
                     PLATFORM_NAMES[static_cast<std::size_t>(platform)] +
                     " " + core::defenseKindName(defense),
                 gauntlet, options});
        }
    }

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const FleetReport fleet = runFleet(c.scenario, c.options);
        ASSERT_TRUE(fleet.allOk) << fleet.summary();
        ASSERT_EQ(fleet.results.size(), 8u);

        for (unsigned index = 0; index < 8; ++index) {
            SCOPED_TRACE("device " + std::to_string(index));
            const DeviceResult replayed =
                replayFleetDevice(c.scenario, c.options, index);
            const DeviceResult &ran = fleet.results[index];
            EXPECT_EQ(deviceDigest(replayed), deviceDigest(ran));
            EXPECT_EQ(replayed.seed, ran.seed);
            // What deviceDigest leaves out: the attack and schedule
            // digests and the defense ledger.
            EXPECT_EQ(replayed.attackDigest, ran.attackDigest);
            EXPECT_EQ(replayed.scheduleDigest, ran.scheduleDigest);
            EXPECT_EQ(replayed.defenseKind, ran.defenseKind);
            EXPECT_EQ(replayed.defenseClaimBreaches,
                      ran.defenseClaimBreaches);
            EXPECT_EQ(replayed.defenseVulnerableHits,
                      ran.defenseVulnerableHits);
            EXPECT_EQ(replayed.defenseRekeys, ran.defenseRekeys);
            EXPECT_EQ(replayed.defenseEvictions, ran.defenseEvictions);
            EXPECT_EQ(replayed.defenseExtraSeconds, ran.defenseExtraSeconds);
            EXPECT_EQ(replayed.defenseExtraJoules, ran.defenseExtraJoules);
        }
        EXPECT_THROW(replayFleetDevice(c.scenario, c.options, 8),
                     std::invalid_argument);
    }
}

TEST_F(FleetShard, DeviceSampleRetentionIsBoundedWithTrueCounts)
{
    // A pathological scenario with more lock/unlock cycles than the
    // per-device cap: counts stay exact, retention stays bounded.
    std::string text = "audits transitions\nspawn mail sensitive\n";
    const unsigned CYCLES = DEVICE_SAMPLE_CAP + 12;
    for (unsigned i = 0; i < CYCLES; ++i)
        text += "lock\nunlock 0000\n";
    const Scenario scenario = parseScenario(text, "lock-storm");

    FleetOptions options;
    options.devices = 1;
    options.dramBytes = 8 * MiB;
    const FleetReport report = runFleet(scenario, options);
    ASSERT_TRUE(report.allOk) << report.summary();
    ASSERT_EQ(report.results.size(), 1u);
    const DeviceResult &r = report.results[0];
    EXPECT_EQ(r.lock.count(), CYCLES);
    EXPECT_EQ(r.unlock.count(), CYCLES);
    EXPECT_EQ(r.lock.retained(), DEVICE_SAMPLE_CAP);
    EXPECT_EQ(r.unlock.retained(), DEVICE_SAMPLE_CAP);
    const FleetMetric *unlocks = report.find("sim_unlocks_total");
    ASSERT_NE(unlocks, nullptr);
    EXPECT_EQ(unlocks->u, CYCLES);
}

TEST_F(FleetShard, FleetScalePresetRunsGreen)
{
    // The population-scale preset (shards + transition audits) at a
    // test-sized device count, streaming aggregation on.
    Scenario scenario = builtinScenario("fleet-scale");
    EXPECT_EQ(scenario.defaultDevices, 4096u);
    EXPECT_EQ(scenario.defaultShards, 256u);
    EXPECT_EQ(scenario.auditEveryStep, false);

    FleetOptions options;
    options.devices = 64;
    options.threads = 4;
    options.dramBytes = 8 * MiB;
    options.spawnMode = SpawnMode::Snapshot;
    options.retainResults = false;
    const FleetReport report = runFleet(scenario, options);
    EXPECT_TRUE(report.allOk) << report.summary();
    const FleetMetric *shardCount = report.find("sim_shard_count");
    ASSERT_NE(shardCount, nullptr);
    EXPECT_EQ(shardCount->u, 64u); // 256 requested, clamped to devices
}
