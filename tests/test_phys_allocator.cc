/**
 * @file
 * Physical frame allocator tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "os/phys_allocator.hh"

using namespace sentry;
using namespace sentry::os;

TEST(PhysAllocator, AllocatesDistinctAlignedFrames)
{
    PhysAllocator alloc(DRAM_BASE, 16 * PAGE_SIZE);
    EXPECT_EQ(alloc.totalFrames(), 16u);

    std::set<PhysAddr> frames;
    for (int i = 0; i < 16; ++i) {
        const PhysAddr frame = alloc.allocFrame();
        EXPECT_EQ(frame % PAGE_SIZE, 0u);
        EXPECT_GE(frame, DRAM_BASE);
        EXPECT_LT(frame, DRAM_BASE + 16 * PAGE_SIZE);
        EXPECT_TRUE(frames.insert(frame).second) << "duplicate frame";
    }
    EXPECT_EQ(alloc.freeFrames(), 0u);
}

TEST(PhysAllocator, ExhaustionIsFatal)
{
    PhysAllocator alloc(DRAM_BASE, PAGE_SIZE);
    alloc.allocFrame();
    EXPECT_EXIT(alloc.allocFrame(), testing::ExitedWithCode(1),
                "out of physical memory");
}

TEST(PhysAllocator, FreeReturnsFramesToPool)
{
    PhysAllocator alloc(DRAM_BASE, 2 * PAGE_SIZE);
    const PhysAddr a = alloc.allocFrame();
    EXPECT_TRUE(alloc.isAllocated(a));
    alloc.freeFrame(a);
    EXPECT_FALSE(alloc.isAllocated(a));
    EXPECT_EQ(alloc.freeFrames(), 2u);
}

TEST(PhysAllocator, DoubleFreePanics)
{
    PhysAllocator alloc(DRAM_BASE, 2 * PAGE_SIZE);
    const PhysAddr a = alloc.allocFrame();
    alloc.freeFrame(a);
    EXPECT_DEATH(alloc.freeFrame(a), "double free");
}

TEST(PhysAllocator, FreeingAFrameNeverAllocatedPanics)
{
    PhysAllocator alloc(DRAM_BASE, 4 * PAGE_SIZE);
    alloc.reserveRange(DRAM_BASE, PAGE_SIZE);
    const PhysAddr a = alloc.allocFrame();
    EXPECT_DEATH(alloc.freeFrame(DRAM_BASE), "double free");
    EXPECT_DEATH(alloc.freeFrame(a + 8), "double free");
    EXPECT_DEATH(alloc.freeFrame(DRAM_BASE + 4 * PAGE_SIZE), "double free");
    EXPECT_DEATH(alloc.freeFrame(DRAM_BASE - PAGE_SIZE), "double free");
}

TEST(PhysAllocator, IsAllocatedHoldsOnlyForAllocatedFrameAddresses)
{
    PhysAllocator alloc(DRAM_BASE, 8 * PAGE_SIZE);
    alloc.reserveRange(DRAM_BASE + 6 * PAGE_SIZE, 2 * PAGE_SIZE);
    const PhysAddr a = alloc.allocFrame();
    const PhysAddr b = alloc.allocFrame();
    EXPECT_EQ(a, DRAM_BASE);
    EXPECT_TRUE(alloc.isAllocated(a));
    EXPECT_TRUE(alloc.isAllocated(b));
    EXPECT_FALSE(alloc.isAllocated(a + 1)) << "not a frame address";
    EXPECT_FALSE(alloc.isAllocated(a + PAGE_SIZE - 1));
    EXPECT_FALSE(alloc.isAllocated(DRAM_BASE + 2 * PAGE_SIZE)) << "free";
    EXPECT_FALSE(alloc.isAllocated(DRAM_BASE + 6 * PAGE_SIZE))
        << "reserved";
    EXPECT_FALSE(alloc.isAllocated(DRAM_BASE - PAGE_SIZE));
    EXPECT_FALSE(alloc.isAllocated(DRAM_BASE + 8 * PAGE_SIZE));
    EXPECT_FALSE(alloc.isAllocated(0));
    alloc.freeFrame(a);
    EXPECT_FALSE(alloc.isAllocated(a));
    EXPECT_TRUE(alloc.isAllocated(b));
    EXPECT_EQ(alloc.totalFrames(), 6u);
}

TEST(PhysAllocator, ExhaustionReportsTheAllocatedCount)
{
    PhysAllocator alloc(DRAM_BASE, 4 * PAGE_SIZE);
    alloc.reserveRange(DRAM_BASE, PAGE_SIZE);
    alloc.allocFrame();
    alloc.allocFrame();
    alloc.freeFrame(alloc.allocFrame());
    alloc.allocFrame();
    EXPECT_EXIT(alloc.allocFrame(), testing::ExitedWithCode(1),
                "out of physical memory \\(3 frames allocated\\)");
    EXPECT_EXIT(alloc.allocFrame(MemDomain::Victim),
                testing::ExitedWithCode(1),
                "out of physical memory in domain 1 \\(3 frames "
                "allocated\\)");
}

TEST(PhysAllocator, ReserveRangeRemovesFrames)
{
    PhysAllocator alloc(DRAM_BASE, 8 * PAGE_SIZE);
    alloc.reserveRange(DRAM_BASE + 2 * PAGE_SIZE, 4 * PAGE_SIZE);
    EXPECT_EQ(alloc.freeFrames(), 4u);
    for (int i = 0; i < 4; ++i) {
        const PhysAddr frame = alloc.allocFrame();
        const bool inReserved = frame >= DRAM_BASE + 2 * PAGE_SIZE &&
                                frame < DRAM_BASE + 6 * PAGE_SIZE;
        EXPECT_FALSE(inReserved);
    }
}

TEST(PhysAllocator, AllocContiguousFindsRuns)
{
    PhysAllocator alloc(DRAM_BASE, 8 * PAGE_SIZE);
    const PhysAddr base = alloc.allocContiguous(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(alloc.isAllocated(base + i * PAGE_SIZE));
    EXPECT_EQ(alloc.freeFrames(), 4u);
}

TEST(PhysAllocator, AllocContiguousFailsWhenFragmented)
{
    PhysAllocator alloc(DRAM_BASE, 4 * PAGE_SIZE);
    // Allocate everything, free alternating frames.
    std::vector<PhysAddr> frames;
    for (int i = 0; i < 4; ++i)
        frames.push_back(alloc.allocFrame());
    std::sort(frames.begin(), frames.end());
    alloc.freeFrame(frames[0]);
    alloc.freeFrame(frames[2]);
    EXPECT_EXIT(alloc.allocContiguous(2), testing::ExitedWithCode(1),
                "contiguous");
}

TEST(PhysAllocator, UnalignedRangeIsFatal)
{
    EXPECT_EXIT(PhysAllocator(DRAM_BASE + 1, PAGE_SIZE),
                testing::ExitedWithCode(1), "aligned");
}

namespace
{

constexpr std::size_t FRAMES = 64;

/** Two frames per row, two banks: rows-in-bank 0..11 are victim rows,
 * 12 is the guard row and 13..15 are the attacker's. */
RowPartition
plan()
{
    RowPartition partition;
    partition.rowBytes = 2 * PAGE_SIZE;
    partition.banks = 2;
    partition.victimRowLimit = 12;
    partition.guardRows = 1;
    partition.geomBase = DRAM_BASE;
    return partition;
}

/** An image like a booted kernel's: a carve-out reserved, contiguous
 * state allocated, frames allocated and some freed back on top. */
PhysAllocator
bootedImage()
{
    PhysAllocator alloc(DRAM_BASE, FRAMES * PAGE_SIZE);
    alloc.reserveRange(DRAM_BASE + 56 * PAGE_SIZE, 4 * PAGE_SIZE);
    alloc.allocContiguous(2);
    std::vector<PhysAddr> frames;
    for (int i = 0; i < 10; ++i)
        frames.push_back(alloc.allocFrame());
    alloc.freeFrame(frames[3]);
    alloc.freeFrame(frames[7]);
    return alloc;
}

struct Mutation
{
    const char *name;
    std::function<void(PhysAllocator &)> apply;
};

/** One of each kind of change the low-water mark must see. */
std::vector<Mutation>
mutations()
{
    const auto allocate = [](PhysAllocator &alloc, int frames) {
        for (int i = 0; i < frames; ++i)
            alloc.allocFrame();
    };
    return {
        {"pop", [=](PhysAllocator &a) { allocate(a, 3); }},
        {"push", [](PhysAllocator &a) { a.freeFrame(DRAM_BASE); }},
        {"pop then push",
         [=](PhysAllocator &a) {
             allocate(a, 5);
             a.freeFrame(DRAM_BASE + 2 * PAGE_SIZE);
             a.freeFrame(DRAM_BASE);
         }},
        {"attacker erase at the front",
         [](PhysAllocator &a) {
             a.partitionRows(plan());
             a.allocFrame(MemDomain::Attacker);
         }},
        {"victim erase mid-list",
         [](PhysAllocator &a) {
             a.partitionRows(plan());
             a.freeFrame(a.allocFrame(MemDomain::Attacker));
             a.allocFrame(MemDomain::Victim);
         }},
        {"default erase mid-list",
         [](PhysAllocator &a) {
             a.partitionRows(plan());
             a.freeFrame(a.allocFrame(MemDomain::Attacker));
             a.allocFrame(MemDomain::Default);
         }},
        {"contiguous", [](PhysAllocator &a) { a.allocContiguous(4); }},
        {"reserve",
         [](PhysAllocator &a) {
             a.reserveRange(DRAM_BASE + 40 * PAGE_SIZE, 2 * PAGE_SIZE);
         }},
        {"partition only", [](PhysAllocator &a) { a.partitionRows(plan()); }},
        {"exhaust and refill",
         [](PhysAllocator &a) {
             std::vector<PhysAddr> taken;
             while (a.freeFrames() != 0)
                 taken.push_back(a.allocFrame());
             for (const PhysAddr frame : taken)
                 a.freeFrame(frame);
         }},
    };
}

} // namespace

TEST(PhysAllocator, VictimAndDefaultRequestsEraseMidList)
{
    // The mutation list's mid-list cases really are mid-list: the
    // freed attacker frame sits on top, so the victim frame comes from
    // below it.
    PhysAllocator alloc = bootedImage();
    alloc.partitionRows(plan());
    const PhysAddr attacker = alloc.allocFrame(MemDomain::Attacker);
    EXPECT_TRUE(alloc.inAttackerRows(attacker));
    alloc.freeFrame(attacker);
    const std::size_t before = alloc.freeFrames();
    const PhysAddr victim = alloc.allocFrame(MemDomain::Victim);
    EXPECT_TRUE(alloc.inVictimRows(victim));
    EXPECT_EQ(alloc.freeFrames(), before - 1);
    EXPECT_EQ(alloc.freeList().back(), attacker);
}

TEST(PhysAllocator, LowWaterRestoreEqualsAFullCopy)
{
    const PhysAllocator image = bootedImage();
    for (const Mutation &mutation : mutations()) {
        // A target last restored from the image, changed, and restored
        // again by delta, against one that takes the full copy.
        PhysAllocator delta(DRAM_BASE, FRAMES * PAGE_SIZE);
        delta.restore(image, false);
        mutation.apply(delta);
        delta.restore(image, true);
        PhysAllocator full(DRAM_BASE, FRAMES * PAGE_SIZE);
        full.restore(image, false);
        mutation.apply(full);
        full.restore(image, false);
        EXPECT_TRUE(delta == image) << mutation.name;
        EXPECT_TRUE(full == image) << mutation.name;
        EXPECT_EQ(delta.freeList(), image.freeList()) << mutation.name;

        // Twice in a row: the mark was reset by the delta restore.
        mutation.apply(delta);
        delta.restore(image, true);
        EXPECT_TRUE(delta == image) << mutation.name << ", second round";

        // The restored twins hand out the same frames afterwards.
        for (int i = 0; i < 6; ++i)
            EXPECT_EQ(delta.allocFrame(), full.allocFrame())
                << mutation.name << ", allocation " << i;
        EXPECT_EQ(delta.allocContiguous(3), full.allocContiguous(3))
            << mutation.name;
    }
}
