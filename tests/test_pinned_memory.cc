/**
 * @file
 * Pin-on-SoC abstraction tests (paper section 10): data stored through
 * PinnedMemory never reaches DRAM, never crosses the bus, is DMA-proof
 * (when TrustZone is available), and vanishes on cold boot.
 */

#include <gtest/gtest.h>

#include "attacks/dma_attack.hh"
#include "common/bytes.hh"
#include "common/logging.hh"
#include "core/pinned_memory.hh"
#include "hw/bus_monitor.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"

using namespace sentry;
using namespace sentry::core;

namespace
{
const auto KEY = fromHex("0123456789abcdeffedcba9876543210");
}

class PinnedBackingTest : public testing::TestWithParam<PinBacking>
{
};

TEST_P(PinnedBackingTest, RoundTripAndPoolAccounting)
{
    hw::Soc soc(hw::PlatformConfig::tegra3(32 * MiB));
    auto pool = PinnedMemory::create(soc, 16 * KiB, GetParam());
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool->backing(), GetParam());

    const OnSocRegion region = pool->alloc(64);
    ASSERT_TRUE(region.valid());
    pool->write(region, 0, KEY);

    std::vector<std::uint8_t> back(KEY.size());
    pool->read(region, 0, back);
    EXPECT_EQ(toHex(back), toHex(KEY));

    const std::size_t freeBefore = pool->freeBytes();
    pool->free(region);
    EXPECT_GT(pool->freeBytes(), freeBefore);
}

TEST_P(PinnedBackingTest, NeverInDramNeverOnBus)
{
    hw::Soc soc(hw::PlatformConfig::tegra3(32 * MiB));
    StreamMatcher onBus({KEY});
    hw::BusMonitor monitor(/*capture_payloads=*/false, &onBus);
    monitor.attach(soc.trace());

    auto pool = PinnedMemory::create(soc, 16 * KiB, GetParam());
    ASSERT_NE(pool, nullptr);
    const OnSocRegion region = pool->alloc(64);
    pool->write(region, 0, KEY);
    std::vector<std::uint8_t> back(KEY.size());
    pool->read(region, 0, back);

    EXPECT_FALSE(containsBytes(soc.dramRaw(), KEY));
    EXPECT_FALSE(onBus.found(0));
    monitor.detach();
}

TEST_P(PinnedBackingTest, DmaCannotReadThePool)
{
    hw::Soc soc(hw::PlatformConfig::tegra3(32 * MiB));
    auto pool = PinnedMemory::create(soc, 16 * KiB, GetParam());
    ASSERT_NE(pool, nullptr);
    EXPECT_TRUE(pool->dmaProtected());

    const OnSocRegion region = pool->alloc(64);
    pool->write(region, 0, KEY);

    attacks::DmaAttack attack;
    EXPECT_FALSE(
        attack.run(soc, KEY, "pinned pool").secretRecovered);
}

TEST_P(PinnedBackingTest, ColdBootLosesThePool)
{
    hw::Soc soc(hw::PlatformConfig::tegra3(32 * MiB));
    auto pool = PinnedMemory::create(soc, 16 * KiB, GetParam());
    ASSERT_NE(pool, nullptr);
    const OnSocRegion region = pool->alloc(64);
    pool->write(region, 0, KEY);

    soc.powerCycle(0.007); // the reflash tap
    EXPECT_FALSE(containsBytes(soc.iramRaw(), KEY));
    EXPECT_FALSE(containsBytes(soc.dramRaw(), KEY));
}

INSTANTIATE_TEST_SUITE_P(Backings, PinnedBackingTest,
                         testing::Values(PinBacking::Iram,
                                         PinBacking::LockedL2),
                         [](const auto &info) {
                             return std::string(
                                 info.param == PinBacking::Iram
                                     ? "iram"
                                     : "lockedL2");
                         });

TEST(PinnedMemory, TeardownScrubsThePool)
{
    hw::Soc soc(hw::PlatformConfig::tegra3(32 * MiB));
    {
        auto pool = PinnedMemory::create(soc, 16 * KiB, PinBacking::Iram);
        const OnSocRegion region = pool->alloc(64);
        pool->write(region, 0, KEY);
        ASSERT_TRUE(containsBytes(soc.iramRaw(), KEY));
    }
    EXPECT_FALSE(containsBytes(soc.iramRaw(), KEY));
}

TEST(PinnedMemory, LockedL2UnavailableOnNexus)
{
    hw::Soc nexus(hw::PlatformConfig::nexus4(32 * MiB));
    EXPECT_EQ(PinnedMemory::create(nexus, 16 * KiB,
                                   PinBacking::LockedL2),
              nullptr);
}

TEST(PinnedMemory, IramOnNexusWorksButIsNotDmaProof)
{
    // Section 4.4's caveat: without TrustZone, iRAM is ordinary system
    // memory to a DMA master.
    hw::Soc nexus(hw::PlatformConfig::nexus4(32 * MiB));
    setQuiet(true); // suppress the expected warning
    auto pool = PinnedMemory::create(nexus, 16 * KiB, PinBacking::Iram);
    setQuiet(false);
    ASSERT_NE(pool, nullptr);
    EXPECT_FALSE(pool->dmaProtected());

    const OnSocRegion region = pool->alloc(64);
    pool->write(region, 0, KEY);
    attacks::DmaAttack attack;
    EXPECT_TRUE(attack.run(nexus, KEY, "unprotected pinned pool")
                    .secretRecovered);
}

TEST(PinnedMemory, ExhaustionReturnsInvalidRegion)
{
    hw::Soc soc(hw::PlatformConfig::tegra3(32 * MiB));
    auto pool = PinnedMemory::create(soc, 1 * KiB, PinBacking::Iram);
    EXPECT_TRUE(pool->alloc(1024).valid());
    EXPECT_FALSE(pool->alloc(16).valid());
}

TEST(PinnedMemory, LockedL2PoolIsAtMostOneWay)
{
    hw::Soc soc(hw::PlatformConfig::tegra3(32 * MiB));
    const std::size_t way = soc.l2().waySizeBytes();
    EXPECT_NE(PinnedMemory::create(soc, way, PinBacking::LockedL2), nullptr);
    EXPECT_DEATH(PinnedMemory::create(soc, way + 1, PinBacking::LockedL2),
                 "multi-way pinned pools are not implemented; ask for <= "
                 "[0-9]+ bytes");
}
