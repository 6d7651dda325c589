/**
 * @file
 * PL310 L2 cache model tests, including the exact behaviours the paper
 * validated on hardware (section 4.2): locked ways never write back,
 * a raw full flush *does* unlock and leak them, and the masked flush
 * (the OS change) preserves them.
 */

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "common/sim_clock.hh"
#include "hw/bus.hh"
#include "hw/dram.hh"
#include "hw/l2_cache.hh"
#include "hw/trustzone.hh"

using namespace sentry;
using namespace sentry::hw;

namespace
{

struct L2Fixture : testing::Test
{
    L2Fixture()
        : clock(1e9), dram(8 * MiB), tz(/*secure=*/true, 1),
          l2(clock, bus, tz, DRAM_BASE, dram.size(), 1 * MiB, 8)
    {
        bus.attach(&dram, DRAM_BASE, dram.size(), "dram");
    }

    /** Program the lockdown register from the secure world. */
    void
    lockdown(std::uint32_t mask)
    {
        SecureWorldGuard guard(tz);
        ASSERT_TRUE(l2.writeLockdownReg(mask));
    }

    std::uint32_t
    read32(PhysAddr addr)
    {
        std::uint32_t v;
        l2.read(addr, reinterpret_cast<std::uint8_t *>(&v), 4);
        return v;
    }

    void
    write32(PhysAddr addr, std::uint32_t v)
    {
        l2.write(addr, reinterpret_cast<const std::uint8_t *>(&v), 4);
    }

    SimClock clock;
    Bus bus;
    Dram dram;
    TrustZone tz;
    L2Cache l2;
};

} // namespace

TEST_F(L2Fixture, Geometry)
{
    EXPECT_EQ(l2.size(), 1 * MiB);
    EXPECT_EQ(l2.ways(), 8u);
    EXPECT_EQ(l2.waySizeBytes(), 128 * KiB);
    EXPECT_EQ(l2.numSets(), 4096u);
}

TEST_F(L2Fixture, ReadMissFillsThenHits)
{
    const std::uint8_t cell = 0xab;
    dram.writeCells(0x100, &cell, 1);
    EXPECT_EQ(read32(DRAM_BASE + 0x100) & 0xff, 0xabu);
    EXPECT_EQ(l2.stats().misses, 1u);

    read32(DRAM_BASE + 0x100);
    EXPECT_EQ(l2.stats().hits, 1u);
}

TEST_F(L2Fixture, WriteIsWriteBackNotWriteThrough)
{
    write32(DRAM_BASE + 0x200, 0xdeadbeef);
    // Dirty data sits in the cache; DRAM still holds the old bytes.
    EXPECT_EQ(dram.raw()[0x200], 0x00);
    unsigned way;
    ASSERT_NE(l2.peek(DRAM_BASE + 0x200, &way), nullptr);
    EXPECT_EQ(read32(DRAM_BASE + 0x200), 0xdeadbeefu);
}

TEST_F(L2Fixture, CleanRangePushesDirtyDataToDram)
{
    write32(DRAM_BASE + 0x200, 0xdeadbeef);
    l2.cleanRange(DRAM_BASE + 0x200, 4);
    EXPECT_EQ(dram.raw()[0x200], 0xef); // little-endian
    EXPECT_EQ(dram.raw()[0x203], 0xde);
    // Line stays valid after a clean.
    EXPECT_NE(l2.peek(DRAM_BASE + 0x200), nullptr);
}

TEST_F(L2Fixture, InvalidateRangeDiscardsDirtyData)
{
    write32(DRAM_BASE + 0x300, 0x11223344);
    l2.invalidateRange(DRAM_BASE + 0x300, 4);
    EXPECT_EQ(l2.peek(DRAM_BASE + 0x300), nullptr);
    EXPECT_EQ(dram.raw()[0x300], 0x00); // write never reached DRAM
}

TEST_F(L2Fixture, EvictionWritesBackDirtyVictim)
{
    // Fill one set 9 times (8 ways + 1) to force an eviction.
    const PhysAddr setStride = l2.waySizeBytes(); // same set, new tag
    for (unsigned i = 0; i < 9; ++i)
        write32(DRAM_BASE + i * setStride, 0x1000 + i);
    EXPECT_GE(l2.stats().writebacks, 1u);
    // The first-written line was evicted and its data reached DRAM.
    EXPECT_EQ(dram.raw()[0], 0x00); // little-endian 0x1000 => byte0 0
    EXPECT_EQ(dram.raw()[1], 0x10);
}

TEST_F(L2Fixture, LockdownRequiresSecureWorld)
{
    // Normal world: the co-processor write is ignored.
    EXPECT_FALSE(l2.writeLockdownReg(0x1));
    EXPECT_EQ(l2.lockdownReg(), 0u);

    lockdown(0x3);
    EXPECT_EQ(l2.lockdownReg(), 0x3u);
}

TEST_F(L2Fixture, LockedWayNeverEvictsOrWritesBack)
{
    // Warm way 0 with dirty data: allocate with all other ways locked.
    lockdown(0xfe);
    const PhysAddr target = DRAM_BASE + 1 * MiB;
    write32(target, 0x5ec7e700);

    // Flip the lock: way 0 locked, the rest available.
    lockdown(0x01);
    l2.setFlushWayMask(0x01);

    // Hammer the same set with 32 distinct tags: way 0 must survive.
    for (unsigned i = 1; i <= 32; ++i)
        write32(target + i * l2.waySizeBytes(), i);

    unsigned way = 99;
    ASSERT_NE(l2.peek(target, &way), nullptr);
    EXPECT_EQ(way, 0u);
    // And the locked dirty data never appeared in DRAM.
    EXPECT_EQ(dram.raw()[1 * MiB], 0x00);
    EXPECT_EQ(read32(target), 0x5ec7e700u);
}

TEST_F(L2Fixture, MaskedFlushPreservesLockedWay)
{
    lockdown(0xfe);
    const PhysAddr target = DRAM_BASE + 2 * MiB;
    write32(target, 0xfeedface);
    lockdown(0x01);
    l2.setFlushWayMask(0x01);

    l2.flushAllMasked();

    EXPECT_NE(l2.peek(target), nullptr);     // still cached
    EXPECT_EQ(dram.raw()[2 * MiB], 0x00);    // never written back
}

TEST_F(L2Fixture, RawFlushUnlocksAndLeaksLockedWay)
{
    // The dangerous stock behaviour the paper discovered: a full flush
    // unlocks all locked ways and their contents land in DRAM.
    lockdown(0xfe);
    const PhysAddr target = DRAM_BASE + 2 * MiB;
    write32(target, 0xfeedface);
    lockdown(0x01);
    l2.setFlushWayMask(0x01);

    l2.rawFlushAll();

    EXPECT_EQ(l2.peek(target), nullptr);
    EXPECT_EQ(l2.lockdownReg(), 0u);
    EXPECT_EQ(dram.raw()[2 * MiB], 0xce); // leaked, little-endian
}

TEST_F(L2Fixture, AllWaysLockedFallsBackToUncachedAccess)
{
    lockdown(0xff);
    write32(DRAM_BASE + 0x700, 0xabcd0123);
    // With no allocatable way the write goes straight to DRAM.
    EXPECT_EQ(l2.stats().uncachedAccesses, 1u);
    EXPECT_EQ(dram.raw()[0x700], 0x23);
    EXPECT_EQ(l2.peek(DRAM_BASE + 0x700), nullptr);
}

TEST_F(L2Fixture, ResetAndZeroClearsEverything)
{
    write32(DRAM_BASE + 0x100, 0x12345678);
    lockdown(0x01);
    l2.setFlushWayMask(0x01);

    l2.resetAndZero();

    EXPECT_EQ(l2.peek(DRAM_BASE + 0x100), nullptr);
    EXPECT_EQ(l2.lockdownReg(), 0u);
    EXPECT_EQ(l2.flushWayMask(), 0u);
    // Reset discards without writeback.
    EXPECT_EQ(dram.raw()[0x100], 0x00);
}

TEST_F(L2Fixture, CrossLineAccessPanics)
{
    std::uint8_t buf[8];
    EXPECT_DEATH(l2.read(DRAM_BASE + CACHE_LINE_SIZE - 4, buf, 8),
                 "crosses a line");
}

TEST_F(L2Fixture, TimingChargesHitAndMissDifferently)
{
    const Cycles start = clock.now();
    read32(DRAM_BASE); // miss
    const Cycles missCost = clock.now() - start;
    const Cycles mid = clock.now();
    read32(DRAM_BASE); // hit
    const Cycles hitCost = clock.now() - mid;
    EXPECT_GT(missCost, hitCost);
    EXPECT_GT(hitCost, 0u);
}

TEST_F(L2Fixture, WayDirtyTracking)
{
    EXPECT_FALSE(l2.wayHasDirtyLines(0));
    lockdown(0xfe); // allocate into way 0 only
    write32(DRAM_BASE + 0x40, 1);
    EXPECT_TRUE(l2.wayHasDirtyLines(0));
}
