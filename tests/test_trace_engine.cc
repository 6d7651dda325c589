/**
 * @file
 * Tests for the TraceEngine spine: subscription semantics (order,
 * mask replacement, response channels), the stock CounterSink and
 * ChromeTraceSink, and batched delivery.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "common/trace_engine.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"

using namespace sentry;
using namespace sentry::hw;

namespace
{

/** Appends a tag on every KcryptdOp and adds one second of stall. */
struct TaggingSubscriber : probe::Subscriber
{
    TaggingSubscriber(std::string *log, char tag) : log_(log), tag_(tag) {}

    void
    onKcryptdOp(probe::KcryptdOp &event) override
    {
        log_->push_back(tag_);
        event.stallSeconds += 1.0;
    }

    std::string *log_;
    char tag_;
};

} // namespace

TEST(TraceEngine, StartsWithNothingEnabled)
{
    probe::TraceEngine engine;
    EXPECT_FALSE(engine.anyEnabled());
    EXPECT_EQ(engine.subscriberCount(), 0u);
    for (unsigned k = 0;
         k < static_cast<unsigned>(probe::TraceKind::NumKinds); ++k)
        EXPECT_FALSE(engine.enabled(static_cast<probe::TraceKind>(k)));
}

TEST(TraceEngine, CallbacksRunInSubscriptionOrder)
{
    // The fault injector relies on this: it arms (subscribes) before
    // any monitor attaches, so fault effects land before recording.
    probe::TraceEngine engine;
    std::string log;
    TaggingSubscriber first(&log, 'a');
    TaggingSubscriber second(&log, 'b');
    engine.subscribe(&first, probe::maskOf(probe::TraceKind::KcryptdOp));
    engine.subscribe(&second, probe::maskOf(probe::TraceKind::KcryptdOp));

    probe::KcryptdOp event{0.0};
    engine.emit(event);
    EXPECT_EQ(log, "ab");
    // Response channel accumulates across subscribers.
    EXPECT_DOUBLE_EQ(event.stallSeconds, 2.0);

    engine.unsubscribe(&first);
    engine.unsubscribe(&second);
    EXPECT_FALSE(engine.anyEnabled());
}

TEST(TraceEngine, ResubscribeReplacesTheMask)
{
    probe::TraceEngine engine;
    std::string log;
    TaggingSubscriber sub(&log, 'x');
    engine.subscribe(&sub, probe::maskOf(probe::TraceKind::KcryptdOp));
    EXPECT_TRUE(engine.enabled(probe::TraceKind::KcryptdOp));

    engine.subscribe(&sub, probe::maskOf(probe::TraceKind::CacheEvent));
    EXPECT_EQ(engine.subscriberCount(), 1u);
    EXPECT_FALSE(engine.enabled(probe::TraceKind::KcryptdOp));
    EXPECT_TRUE(engine.enabled(probe::TraceKind::CacheEvent));

    // The engine does not dispatch kinds outside the active mask.
    probe::KcryptdOp event{0.0};
    engine.emit(event);
    EXPECT_TRUE(log.empty());
    EXPECT_DOUBLE_EQ(event.stallSeconds, 0.0);

    engine.unsubscribe(&sub);
    engine.unsubscribe(&sub); // second detach is a no-op
    EXPECT_EQ(engine.subscriberCount(), 0u);
}

TEST(CounterSink, AccumulatesSocActivityUntilDetached)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    probe::CounterSink sink;
    sink.attach(soc.trace());

    soc.memory().write32(DRAM_BASE + 0x40, 0x11223344u);
    soc.memory().read32(DRAM_BASE + 0x40);
    soc.memory().write32(IRAM_BASE + 0x100, 0x55667788u);

    const probe::TraceCounters &c = sink.counters();
    EXPECT_EQ(c.iramWrites, 1u);
    EXPECT_GE(c.dramReads, 1u); // L2 line fill reached the cell array
    EXPECT_GE(c.busReads, 1u);
    EXPECT_GT(c.busReadBytes, 0u);
    EXPECT_GT(c.memOps(), 0u);
    EXPECT_NE(c.summary().find("busR:"), std::string::npos);

    const probe::TraceCounters frozen = c;
    sink.detach();
    EXPECT_FALSE(soc.trace().anyEnabled());
    soc.memory().write32(DRAM_BASE + 0x80, 1u);
    EXPECT_EQ(sink.counters().memOps(), frozen.memOps());
    EXPECT_EQ(sink.counters().busOps(), frozen.busOps());
}

TEST(ChromeTraceSink, RecordsTimelineAndWritesJson)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    probe::ChromeTraceSink sink(1024);
    sink.attach(soc.trace());
    soc.memory().write32(DRAM_BASE + 0x40, 0xdeadbeefu);
    sink.detach();
    ASSERT_GT(sink.eventCount(), 0u);
    EXPECT_FALSE(sink.truncated());

    const std::string path = "test_trace_engine_timeline.json";
    ASSERT_TRUE(sink.writeJson(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(body.str().find("bus-transfer"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ChromeTraceSink, TruncatesAtTheEventCap)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    probe::ChromeTraceSink sink(4);
    sink.attach(soc.trace());
    for (unsigned i = 0; i < 8; ++i)
        soc.memory().write32(DRAM_BASE + 0x40 + 64 * i, i);
    sink.detach();
    EXPECT_EQ(sink.eventCount(), 4u);
    EXPECT_TRUE(sink.truncated());
}

namespace
{

/** Batch sink that renders every record to a comparable event stream. */
struct RecordingBatchSink : probe::BatchSubscriber
{
    void
    onRecords(const probe::TraceRecord *records,
              std::size_t count) override
    {
        ++batches;
        for (std::size_t i = 0; i < count; ++i) {
            const probe::TraceRecord &r = records[i];
            char buf[160];
            switch (r.kind) {
              case probe::TraceKind::MemAccess:
                std::snprintf(buf, sizeof buf, "mem %d %d %llx %zu",
                              static_cast<int>(r.mem.device),
                              r.mem.isWrite ? 1 : 0,
                              static_cast<unsigned long long>(r.mem.offset),
                              r.mem.len);
                break;
              case probe::TraceKind::BusTransfer:
                std::snprintf(buf, sizeof buf, "bus %llx %u %d %d %u %p",
                              static_cast<unsigned long long>(r.bus.addr),
                              r.bus.size, r.bus.isWrite ? 1 : 0,
                              r.bus.duplicate ? 1 : 0, r.bus.extraWrites,
                              static_cast<const void *>(r.bus.data));
                break;
              case probe::TraceKind::CacheEvent:
                std::snprintf(buf, sizeof buf, "wb %u %d %llx",
                              r.cache.way, r.cache.wayLocked ? 1 : 0,
                              static_cast<unsigned long long>(
                                  r.cache.addr));
                break;
              case probe::TraceKind::PowerEvent:
                std::snprintf(buf, sizeof buf, "pw %s %.9g",
                              r.power.category, r.power.joules);
                break;
              case probe::TraceKind::DmaBurst:
                std::snprintf(buf, sizeof buf, "dma %llx %zu %d",
                              static_cast<unsigned long long>(r.dma.addr),
                              r.dma.len, r.dma.isWrite ? 1 : 0);
                break;
              case probe::TraceKind::CryptoOp:
                std::snprintf(buf, sizeof buf, "co %zu %d",
                              r.crypto.bytes, r.crypto.encrypt ? 1 : 0);
                break;
              default:
                std::snprintf(buf, sizeof buf, "kc %.9g",
                              r.kcryptd.stallSeconds);
                break;
            }
            char ts[48];
            std::snprintf(ts, sizeof ts, " @%.3f\n", r.tsUs);
            stream += buf;
            stream += ts;
        }
    }

    std::string stream;
    unsigned batches = 0;
};

/** Drive a fixed deterministic workload on a fresh Soc. */
void
driveWorkload(Soc &soc)
{
    for (unsigned i = 0; i < 24; ++i)
        soc.memory().write32(DRAM_BASE + 0x40 + 192 * i, 0x1000 + i);
    for (unsigned i = 0; i < 24; ++i)
        soc.memory().read32(DRAM_BASE + 0x40 + 192 * i);
    soc.memory().write32(IRAM_BASE + 0x80, 0xabcdef01u);
}

} // namespace

TEST(TraceBatching, BatchedStreamMatchesUnbatchedStream)
{
    // Capacity 1 delivers every record immediately (the pre-batching
    // behaviour); the default capacity coalesces per bus burst. Both
    // must produce byte-identical event streams — batching may change
    // *when* sinks run, never *what* they see.
    RecordingBatchSink unbatched, batched;
    std::string unbatchedStream, batchedStream;
    {
        Soc soc(PlatformConfig::tegra3(16 * MiB));
        soc.trace().setBatchCapacity(1);
        soc.trace().subscribeBatched(&unbatched, probe::TRACE_ALL);
        driveWorkload(soc);
        soc.trace().unsubscribeBatched(&unbatched);
    }
    {
        Soc soc(PlatformConfig::tegra3(16 * MiB));
        soc.trace().subscribeBatched(&batched, probe::TRACE_ALL);
        driveWorkload(soc);
        soc.trace().unsubscribeBatched(&batched);
    }
    EXPECT_EQ(unbatched.stream, batched.stream);
    EXPECT_FALSE(batched.stream.empty());
    // Batching actually coalesced: fewer deliveries for the same events.
    EXPECT_LT(batched.batches, unbatched.batches);
}

TEST(TraceBatching, CounterTotalsMatchBetweenCapacities)
{
    probe::TraceCounters unbatched, batched;
    {
        Soc soc(PlatformConfig::tegra3(16 * MiB));
        soc.trace().setBatchCapacity(1);
        probe::CounterSink sink;
        sink.attach(soc.trace());
        driveWorkload(soc);
        unbatched = sink.counters();
    }
    {
        Soc soc(PlatformConfig::tegra3(16 * MiB));
        probe::CounterSink sink;
        sink.attach(soc.trace());
        driveWorkload(soc);
        batched = sink.counters();
    }
    EXPECT_EQ(unbatched.summary(), batched.summary());
    EXPECT_GT(batched.memOps(), 0u);
}

TEST(TraceBatching, ReadersSeeNoStalePrefix)
{
    // counters() must flush the pending ring: a mid-burst reader sees
    // every event emitted so far, not just the flushed prefix.
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    probe::CounterSink sink;
    sink.attach(soc.trace());
    soc.memory().write32(IRAM_BASE + 0x40, 1u); // no bus burst: stays pending
    EXPECT_EQ(sink.counters().iramWrites, 1u);
    EXPECT_EQ(soc.trace().pendingCount(), 0u);
}

TEST(TraceBatching, DetachFlushesAndStopsDelivery)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    RecordingBatchSink sink;
    soc.trace().subscribeBatched(&sink, probe::TRACE_ALL);
    soc.memory().write32(IRAM_BASE + 0x40, 1u);
    soc.trace().unsubscribeBatched(&sink); // flushes the pending record
    const std::string frozen = sink.stream;
    EXPECT_FALSE(frozen.empty());
    EXPECT_FALSE(soc.trace().anyEnabled());
    soc.memory().write32(IRAM_BASE + 0x44, 2u);
    EXPECT_EQ(sink.stream, frozen);
}

TEST(TraceBatching, SyncSubscribersRunBeforeTheSnapshot)
{
    // Response fields written by synchronous subscribers must be
    // visible in the batched record (snapshot happens after the sync
    // pass) — the fuzzer's stall accounting depends on it.
    probe::TraceEngine engine;
    std::string log;
    TaggingSubscriber sync(&log, 's');
    RecordingBatchSink batch;
    engine.subscribe(&sync, probe::maskOf(probe::TraceKind::KcryptdOp));
    engine.subscribeBatched(&batch,
                            probe::maskOf(probe::TraceKind::KcryptdOp));

    probe::KcryptdOp event{0.0};
    engine.emit(event);
    engine.flushPending();
    EXPECT_EQ(log, "s");
    EXPECT_NE(batch.stream.find("kc 1"), std::string::npos);

    engine.unsubscribe(&sync);
    engine.unsubscribeBatched(&batch);
}

TEST(TraceBatching, AutoDumpWritesTheTimelineOnPanic)
{
    // A failing fleet run dies through panic() -> std::abort. The crash
    // hook must leave a loadable trace file with the events already
    // delivered to the sink (it deliberately does NOT flush the engine
    // — the engine's state may be the thing that paniced).
    const std::string path = "test_trace_engine_panicdump.json";
    std::remove(path.c_str());
    EXPECT_DEATH(
        {
            Soc soc(PlatformConfig::tegra3(16 * MiB));
            probe::ChromeTraceSink sink(1024);
            sink.attach(soc.trace());
            sink.setAutoDump(path);
            soc.memory().write32(DRAM_BASE + 0x40, 0xfeedfaceu);
            panic("trace autodump death test");
        },
        "trace autodump death test");
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("traceEvents"), std::string::npos);
    EXPECT_NE(body.str().find("bus-transfer"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceBatching, AutoDumpWritesTheTimelineFromTheDestructor)
{
    const std::string path = "test_trace_engine_autodump.json";
    std::remove(path.c_str());
    {
        Soc soc(PlatformConfig::tegra3(16 * MiB));
        probe::ChromeTraceSink sink(1024);
        sink.attach(soc.trace());
        sink.setAutoDump(path);
        soc.memory().write32(DRAM_BASE + 0x40, 0xfeedfaceu);
        sink.detach();
        // No explicit writeJson: the destructor must dump.
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("bus-transfer"), std::string::npos);
    std::remove(path.c_str());
}
