/**
 * @file
 * Tests for the TraceEngine spine: subscription semantics (order,
 * mask replacement, response channels), counting at the emission site,
 * and the stock CounterSink and ChromeTraceSink, down to a whole device
 * run with every response channel firing.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "attacks/bus_monitor_attack.hh"
#include "attacks/dma_attack.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/trace_engine.hh"
#include "core/device.hh"
#include "fault/fault_injector.hh"
#include "fault/fuzzer.hh"
#include "fleet/scenario.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"
#include "os/block_device.hh"
#include "os/buffer_cache.hh"
#include "os/dm_crypt.hh"
#include "os/filebench.hh"

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
    EXPECT_NE(c.summary().find("busR:"), std::string::npos);

    const probe::TraceCounters frozen = c;
    sink.detach();
    EXPECT_FALSE(soc.trace().anyEnabled());
    soc.memory().write32(DRAM_BASE + 0x80, 1u);
    EXPECT_EQ(sink.counters().summary(), frozen.summary());
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

TEST(TraceEngine, CountingSeesFinalResponseFields)
{
    // The engine counts after every subscriber returned, whatever the
    // attach order, so the totals carry the stall a subscriber wrote
    // into the response field — the fuzzer's stall accounting depends
    // on it.
    probe::TraceEngine engine;
    probe::CounterSink sink;
    sink.attach(engine);
    std::string log;
    TaggingSubscriber sync(&log, 's');
    engine.subscribe(&sync, probe::maskOf(probe::TraceKind::KcryptdOp));

    probe::KcryptdOp event{0.0};
    engine.emit(event);
    EXPECT_EQ(log, "s");
    EXPECT_EQ(sink.counters().kcryptdBlocks, 1u);
    EXPECT_EQ(sink.counters().kcryptdStallSeconds, 1.0);

    engine.unsubscribe(&sync);
    sink.detach();
    EXPECT_FALSE(engine.anyEnabled());
}

TEST(CounterSink, ReattachKeepsOneCountingSlot)
{
    probe::TraceEngine engine;
    probe::CounterSink sink;
    sink.attach(engine);
    sink.attach(engine); // detaches itself first
    EXPECT_EQ(engine.subscriberCount(), 1u);
    probe::CacheEvent event{0, false, 0x40};
    engine.emit(event);
    EXPECT_EQ(sink.counters().cacheWritebacks, 1u);
}

TEST(CounterSink, SecondSinkOnOneEnginePanics)
{
    // An engine counts into one set of totals; a second sink would
    // silently lose one of them, so it is refused loudly.
    EXPECT_DEATH(
        {
            probe::TraceEngine engine;
            probe::CounterSink first;
            probe::CounterSink second;
            first.attach(engine);
            second.attach(engine);
        },
        "second CounterSink");
}

namespace
{

/**
 * Plain subscriber attached last. It folds every event it sees with its
 * own copy of the counting rules: the oracle for the engine's count.
 */
struct FoldingRecorder : probe::Subscriber
{
    void
    onMemAccess(probe::MemAccess &event) override
    {
        ++events;
        if (event.device == probe::MemAccess::Device::Dram)
            ++(event.isWrite ? totals.dramWrites : totals.dramReads);
        else
            ++(event.isWrite ? totals.iramWrites : totals.iramReads);
    }

    void
    onBusTransfer(probe::BusTransfer &event) override
    {
        ++events;
        if (event.duplicate)
            ++totals.busDuplicates;
        if (event.isWrite) {
            ++totals.busWrites;
            totals.busWriteBytes += event.size;
        } else {
            ++totals.busReads;
            totals.busReadBytes += event.size;
        }
    }

    void
    onCacheEvent(probe::CacheEvent &) override
    {
        ++events;
        ++totals.cacheWritebacks;
    }

    void
    onPowerEvent(probe::PowerEvent &event) override
    {
        ++events;
        ++totals.powerEvents;
        totals.joules += event.joules;
    }

    void
    onDmaBurst(probe::DmaBurst &event) override
    {
        ++events;
        ++totals.dmaBursts;
        totals.dmaBytes += event.len;
    }

    void
    onCryptoOp(probe::CryptoOp &event) override
    {
        ++events;
        ++totals.cryptoOps;
        totals.cryptoBytes += event.bytes;
    }

    void
    onKcryptdOp(probe::KcryptdOp &event) override
    {
        ++events;
        ++totals.kcryptdBlocks;
        totals.kcryptdStallSeconds += event.stallSeconds;
    }

    probe::TraceCounters totals;
    std::size_t events = 0;
};

/** Every response channel fires: bus replays and delays, kcryptd
 * stalls, and DMA bursts nested inside L2 writebacks. */
const char *const RESPONSE_CHANNEL_TRIAL = R"(seed 0x1234
[scenario]
devices 1
defense sentry
spawn app0 sensitive heap 65536
touch app0 32768
filebench 65536 randrw
lock
attack dma
unlock 0000
touch app0 16384
lock
attack bus_monitor
[faults]
fault dma_burst after 5 every 50 bytes 4096
fault bus_dup_write after 3 every 37 count 2
fault bus_delay after 7 every 41 cycles 500
fault kcryptd_stall after 2 every 9 seconds 0.001
)";

/**
 * Run the verbs of @p scenario that RESPONSE_CHANNEL_TRIAL uses, as the
 * fleet runner does but without its jitter and audits.
 */
void
runSteps(core::Device &device, const fleet::Scenario &scenario)
{
    os::Kernel &kernel = device.kernel();
    hw::Soc &soc = device.soc();
    const std::vector<std::uint8_t> secret(16, 0x5e);
    std::map<std::string, std::pair<os::Process *, VirtAddr>> heaps;
    Rng ioRng(7);
    for (const fleet::Step &step : scenario.steps) {
        switch (step.op) {
          case fleet::Op::Spawn: {
            os::Process &process = kernel.createProcess(step.name);
            const os::Vma &heap =
                kernel.addVma(process, "heap", os::VmaType::Heap,
                              step.bytes);
            for (std::size_t off = 0; off < heap.size; off += PAGE_SIZE)
                kernel.writeVirt(process, heap.base + off, secret.data(),
                                 secret.size());
            if (step.sensitive)
                device.sentry().markSensitive(process);
            heaps[step.name] = {&process, heap.base};
            break;
          }
          case fleet::Op::Touch: {
            const auto &[process, base] = heaps.at(step.name);
            kernel.touchRange(*process, base, step.bytes);
            break;
          }
          case fleet::Op::Filebench: {
            const std::size_t partition = 4 * MiB;
            os::RamBlockDevice disk(soc.clock(), partition);
            os::DmCrypt dm(disk,
                           kernel.cryptoApi().allocCipher(
                               "aes", std::vector<std::uint8_t>(16, 0x42)),
                           2);
            os::BufferCache cache(soc.clock(), dm, partition / 2);
            os::Filebench bench(soc.clock(), cache, partition / 2);
            bench.run(step.workload, step.bytes, step.directIo, ioRng);
            break;
          }
          case fleet::Op::Lock:
            kernel.lockScreen();
            break;
          case fleet::Op::Unlock:
            EXPECT_TRUE(kernel.unlockScreen(step.pin));
            break;
          case fleet::Op::Attack: {
            attacks::DmaAttack dma;
            std::optional<attacks::BusMonitorAttack> probe;
            if (step.attack == fleet::AttackKind::BusMonitor) {
                probe.emplace(soc);
                probe->startCapture();
                soc.l2().cleanAllMasked();
            }
            dma.dumpRange(soc, DRAM_BASE, soc.dram().size());
            dma.dumpRange(soc, IRAM_BASE, soc.iram().size());
            break;
          }
          default:
            ADD_FAILURE() << "unexpected step at line " << step.line;
        }
    }
}

} // namespace

TEST(TraceEngine, CountsAndTimelineMatchTheLastSubscriberUnderFaults)
{
    const fault::TrialFile file =
        fault::parseTrialFile(RESPONSE_CHANNEL_TRIAL);
    core::SentryOptions options;
    options.placement = core::AesPlacement::LockedL2;
    options.pagerWays = 2;
    core::Device device(hw::PlatformConfig::tegra3(16 * MiB), options);
    device.sentry().registerCryptoProviders();
    hw::Soc &soc = device.soc();

    // The fleet runner's order: injector, counting, timeline. The
    // recorder subscribes last, so it sees every response field final.
    fault::FaultInjector injector(file.spec.faults, file.spec.seed);
    injector.arm(soc);
    probe::CounterSink counters;
    counters.attach(soc.trace());
    probe::ChromeTraceSink timeline;
    timeline.attach(soc.trace());
    FoldingRecorder recorder;
    soc.trace().subscribe(&recorder, probe::TRACE_ALL);

    runSteps(device, file.spec.scenario);
    soc.trace().unsubscribe(&recorder);

    // Every channel fired, and a DMA burst raced a writeback.
    const fault::InjectorStats &fx = injector.stats();
    EXPECT_GT(fx.busDuplicates, 0u);
    EXPECT_GT(fx.delayCycles, 0u);
    EXPECT_GT(fx.stallSeconds, 0.0);
    EXPECT_GT(fx.dmaBurstBytes, 0u);

    const probe::TraceCounters &c = counters.counters();
    const probe::TraceCounters &r = recorder.totals;
    EXPECT_GT(c.busDuplicates, 0u);
    EXPECT_GT(c.dmaBursts, 0u);
    EXPECT_GT(c.kcryptdStallSeconds, 0.0);
    EXPECT_EQ(c.dramReads, r.dramReads);
    EXPECT_EQ(c.dramWrites, r.dramWrites);
    EXPECT_EQ(c.iramReads, r.iramReads);
    EXPECT_EQ(c.iramWrites, r.iramWrites);
    EXPECT_EQ(c.busReads, r.busReads);
    EXPECT_EQ(c.busWrites, r.busWrites);
    EXPECT_EQ(c.busDuplicates, r.busDuplicates);
    EXPECT_EQ(c.busReadBytes, r.busReadBytes);
    EXPECT_EQ(c.busWriteBytes, r.busWriteBytes);
    EXPECT_EQ(c.cacheWritebacks, r.cacheWritebacks);
    EXPECT_EQ(c.powerEvents, r.powerEvents);
    EXPECT_EQ(c.dmaBursts, r.dmaBursts);
    EXPECT_EQ(c.dmaBytes, r.dmaBytes);
    EXPECT_EQ(c.cryptoOps, r.cryptoOps);
    EXPECT_EQ(c.cryptoBytes, r.cryptoBytes);
    EXPECT_EQ(c.kcryptdBlocks, r.kcryptdBlocks);
    // The double sums are added in the same order: bitwise equal.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(c.joules),
              std::bit_cast<std::uint64_t>(r.joules));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(c.kcryptdStallSeconds),
              std::bit_cast<std::uint64_t>(r.kcryptdStallSeconds));
    EXPECT_EQ(c.summary(), r.summary());

    EXPECT_FALSE(timeline.truncated());
    EXPECT_EQ(timeline.eventCount(), recorder.events);
}

TEST(TraceBatching, AutoDumpWritesTheTimelineOnPanic)
{
    // A failing fleet run dies through panic() -> std::abort. The crash
    // hook must leave a loadable trace file holding every event
    // recorded before the panic.
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
