/**
 * @file
 * FaultInjector tests: deterministic triggering (after/every), each
 * fault kind's effect on a live Soc, the no-cascade reentrancy rule,
 * arm/disarm hygiene, and replay-digest stability.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>

#include "common/trace_engine.hh"
#include "common/types.hh"
#include "fault/fault_injector.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"

using namespace sentry;
using namespace sentry::fault;
using namespace sentry::hw;

namespace
{

FaultSpec
makeSpec(FaultKind kind, std::uint64_t after, std::uint64_t every = 0)
{
    FaultSpec spec;
    spec.kind = kind;
    spec.after = after;
    spec.every = every;
    return spec;
}

std::size_t
setBits(std::span<const std::uint8_t> bytes)
{
    std::size_t bits = 0;
    for (std::uint8_t b : bytes)
        bits += static_cast<std::size_t>(std::popcount(b));
    return bits;
}

/** Cheap content fingerprint of the DRAM array (FNV-1a). */
std::string
dramFingerprint(const Soc &soc)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : soc.dramRaw())
        h = (h ^ b) * 0x100000001b3ULL;
    return std::to_string(h);
}

struct InjectorFixture : testing::Test
{
    InjectorFixture() : soc(PlatformConfig::tegra3(4 * MiB)) {}

    /** One 32-byte DMA-path bus write (counts as one bus + DRAM op). */
    void
    busWrite(PhysAddr addr, std::uint8_t value)
    {
        std::uint8_t line[CACHE_LINE_SIZE];
        std::memset(line, value, sizeof(line));
        soc.bus().write(addr, line, sizeof(line), BusInitiator::Dma);
    }

    void
    busRead(PhysAddr addr)
    {
        std::uint8_t line[CACHE_LINE_SIZE];
        soc.bus().read(addr, line, sizeof(line), BusInitiator::Dma);
    }

    Soc soc;
};

} // namespace

TEST_F(InjectorFixture, DramBitFlipFiresExactlyAtTrigger)
{
    FaultSchedule sched;
    sched.faults.push_back(makeSpec(FaultKind::DramBitFlip, 3));
    sched.faults.back().count = 4;

    FaultInjector injector(sched, 1);
    injector.arm(soc);

    busWrite(DRAM_BASE, 0); // op 1: no firing
    busWrite(DRAM_BASE + 64, 0); // op 2: no firing
    EXPECT_EQ(injector.stats().firings, 0u);
    EXPECT_EQ(setBits(soc.dramRaw()), 0u);

    busWrite(DRAM_BASE + 128, 0); // op 3: fires
    EXPECT_EQ(injector.stats().firings, 1u);
    EXPECT_EQ(injector.stats().bitFlips, 4u);
    const std::size_t corrupted = setBits(soc.dramRaw());
    EXPECT_GE(corrupted, 1u);
    EXPECT_LE(corrupted, 4u); // XOR can land twice on one bit

    busWrite(DRAM_BASE + 192, 0); // one-shot: no refire
    EXPECT_EQ(injector.stats().firings, 1u);
    EXPECT_EQ(injector.stats().dramOps, 4u);
}

TEST_F(InjectorFixture, PeriodicSpecRefiresEveryN)
{
    FaultSchedule sched;
    sched.faults.push_back(makeSpec(FaultKind::BusDuplicateWrite, 2, 3));
    sched.faults.back().count = 1;

    FaultInjector injector(sched, 7);
    injector.arm(soc);

    for (unsigned i = 0; i < 8; ++i)
        busWrite(DRAM_BASE + i * 64, 0xaa);

    // Fires at bus-write ordinals 2, 5, 8.
    EXPECT_EQ(injector.stats().firings, 3u);
    EXPECT_EQ(injector.stats().busDuplicates, 3u);
    ASSERT_EQ(injector.firings().size(), 3u);
    EXPECT_EQ(injector.firings()[0].siteOrdinal, 2u);
    EXPECT_EQ(injector.firings()[1].siteOrdinal, 5u);
    EXPECT_EQ(injector.firings()[2].siteOrdinal, 8u);

    // Duplicates are replayed on the bus but never re-enter the hook:
    // the injector saw exactly the 8 issued writes.
    EXPECT_EQ(injector.stats().busWrites, 8u);
    EXPECT_EQ(soc.bus().stats().writes, 8u + 3u);
}

TEST_F(InjectorFixture, BusDelayAdvancesTheSimClock)
{
    FaultSchedule sched;
    sched.faults.push_back(makeSpec(FaultKind::BusDelay, 1));
    sched.faults.back().cycles = 500;

    FaultInjector injector(sched, 3);
    injector.arm(soc);

    const Cycles before = soc.clock().now();
    busRead(DRAM_BASE);
    EXPECT_GE(soc.clock().now() - before, Cycles{500});
    EXPECT_EQ(injector.stats().delayCycles, 500u);
}

TEST_F(InjectorFixture, IramBitFlipCorruptsOnSocSram)
{
    FaultSchedule sched;
    sched.faults.push_back(makeSpec(FaultKind::IramBitFlip, 1));
    sched.faults.back().count = 2;

    FaultInjector injector(sched, 11);
    injector.arm(soc);
    probe::CounterSink sink;
    sink.attach(soc.trace());

    const CowBytes &cells = soc.iram().cells();
    const std::uint64_t before = cells.generation();
    std::uint8_t buf[16] = {};
    soc.iram().write(0, buf, sizeof(buf));
    sink.detach();
    EXPECT_EQ(injector.stats().firings, 1u);
    EXPECT_EQ(injector.stats().iramOps, 1u);
    EXPECT_GE(setBits(soc.iramRaw()), 1u);

    // The flips are stamped, so an incremental scan would see them, and
    // untraced: the only iRAM access on the trace is the triggering write.
    const auto iram = soc.iramRaw();
    for (std::size_t page = 0; page < cells.pageCount(); ++page) {
        if (setBits(iram.subspan(page * PAGE_SIZE, PAGE_SIZE)) != 0) {
            EXPECT_GT(cells.pageStamp(page), before) << "page " << page;
        }
    }
    EXPECT_EQ(sink.counters().iramWrites, 1u);
    EXPECT_EQ(sink.counters().iramReads, 0u);
}

TEST_F(InjectorFixture, LockdownGlitchClearsOnlySetBits)
{
    FaultSchedule sched;
    sched.faults.push_back(makeSpec(FaultKind::LockdownGlitch, 1, 1));
    sched.faults.back().count = 8;

    FaultInjector injector(sched, 13);
    injector.arm(soc);

    // No locked ways: the glitch fires but clears nothing.
    {
        SecureWorldGuard secure(soc.trustzone());
        ASSERT_TRUE(secure.entered());
        ASSERT_TRUE(soc.l2().writeLockdownReg(0));
    }
    // Make a dirty line so a writeback (the trigger site) occurs.
    std::uint8_t line[CACHE_LINE_SIZE] = {1};
    soc.l2().write(DRAM_BASE, line, sizeof(line));
    soc.l2().cleanAllMasked();
    EXPECT_EQ(injector.stats().lockdownBitsCleared, 0u);

    // With ways locked, the glitch clears them.
    {
        SecureWorldGuard secure(soc.trustzone());
        ASSERT_TRUE(secure.entered());
        ASSERT_TRUE(soc.l2().writeLockdownReg(0b101));
    }
    soc.l2().write(DRAM_BASE + 64, line, sizeof(line));
    soc.l2().cleanAllMasked();
    // The glitch only clears bits that were actually set; with count=8
    // draws over two set bits it clears at least one of them.
    EXPECT_LT(std::popcount(soc.l2().lockdownReg()), 2);
    EXPECT_GE(injector.stats().lockdownBitsCleared, 1u);
    EXPECT_LE(injector.stats().lockdownBitsCleared, 2u);
}

TEST_F(InjectorFixture, KcryptdStallReportsConfiguredSeconds)
{
    FaultSchedule sched;
    sched.faults.push_back(makeSpec(FaultKind::KcryptdStall, 2));
    sched.faults.back().seconds = 0.125;

    FaultInjector injector(sched, 17);
    injector.arm(soc);

    auto pump = [&] {
        probe::KcryptdOp event{0.0};
        soc.trace().emit(event);
        return event.stallSeconds;
    };
    EXPECT_DOUBLE_EQ(pump(), 0.0);
    EXPECT_DOUBLE_EQ(pump(), 0.125);
    EXPECT_DOUBLE_EQ(pump(), 0.0); // one-shot
    EXPECT_DOUBLE_EQ(injector.stats().stallSeconds, 0.125);
}

TEST_F(InjectorFixture, PowerGlitchIsStepScoped)
{
    FaultSchedule sched;
    sched.faults.push_back(makeSpec(FaultKind::PowerGlitch, 2));
    sched.faults.back().seconds = 0.5;

    FaultInjector injector(sched, 19);
    injector.arm(soc);

    injector.beginStep();
    EXPECT_TRUE(injector.dueStepFaults().empty());
    injector.beginStep();
    const auto due = injector.dueStepFaults();
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].kind, FaultKind::PowerGlitch);
    EXPECT_DOUBLE_EQ(due[0].seconds, 0.5);
    EXPECT_EQ(injector.stats().firings, 1u);
    injector.beginStep();
    EXPECT_TRUE(injector.dueStepFaults().empty());
}

TEST_F(InjectorFixture, DmaBurstReadsDramMidWriteback)
{
    FaultSchedule sched;
    sched.faults.push_back(makeSpec(FaultKind::DmaBurst, 1));
    sched.faults.back().bytes = 4096;

    FaultInjector injector(sched, 23);
    injector.arm(soc);

    const std::uint64_t readsBefore = soc.bus().stats().reads;
    std::uint8_t line[CACHE_LINE_SIZE] = {0x5a};
    soc.l2().write(DRAM_BASE, line, sizeof(line));
    soc.l2().cleanAllMasked(); // triggers the writeback site
    EXPECT_EQ(injector.stats().dmaBurstBytes, 4096u);
    // The burst's own bus reads happened and advanced the site
    // counters, but could not cascade into further firings.
    EXPECT_GT(soc.bus().stats().reads, readsBefore);
    EXPECT_GT(injector.stats().busReads, 0u);
    EXPECT_EQ(injector.stats().firings, 1u);
}

TEST_F(InjectorFixture, DisarmStopsCountingAndFiring)
{
    FaultSchedule sched;
    sched.faults.push_back(makeSpec(FaultKind::DramBitFlip, 1, 1));

    FaultInjector injector(sched, 29);
    injector.arm(soc);
    busWrite(DRAM_BASE, 0);
    EXPECT_EQ(injector.stats().firings, 1u);

    injector.disarm();
    busWrite(DRAM_BASE + 64, 0);
    EXPECT_EQ(injector.stats().dramOps, 1u);
    EXPECT_EQ(injector.stats().firings, 1u);
    EXPECT_EQ(soc.trace().subscriberCount(), 0u);
    EXPECT_FALSE(soc.trace().anyEnabled());
}

TEST_F(InjectorFixture, ReplayDigestIsBitStable)
{
    auto runOnce = [](std::uint64_t seed) {
        Soc soc(PlatformConfig::tegra3(4 * MiB));
        FaultSchedule sched;
        sched.faults.push_back(makeSpec(FaultKind::DramBitFlip, 2, 2));
        sched.faults.back().count = 3;
        FaultInjector injector(sched, seed);
        injector.arm(soc);
        std::uint8_t line[CACHE_LINE_SIZE] = {};
        for (unsigned i = 0; i < 6; ++i)
            soc.bus().write(DRAM_BASE + i * 64, line, sizeof(line),
                            BusInitiator::Dma);
        return injector.replayDigest() + "|" + dramFingerprint(soc);
    };
    EXPECT_EQ(runOnce(42), runOnce(42));
}
