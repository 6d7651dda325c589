/**
 * @file
 * Assembled-SoC tests: memory-system routing, power events, firmware
 * behaviour, and platform configuration differences.
 */

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"

using namespace sentry;
using namespace sentry::hw;

TEST(MemorySystem, RoutesIramAndDram)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));

    soc.memory().write32(IRAM_BASE + 0x100, 0x11111111);
    soc.memory().write32(DRAM_BASE + 0x100, 0x22222222);

    EXPECT_EQ(soc.memory().read32(IRAM_BASE + 0x100), 0x11111111u);
    EXPECT_EQ(soc.memory().read32(DRAM_BASE + 0x100), 0x22222222u);

    // iRAM accesses bypass the cache entirely.
    EXPECT_TRUE(soc.memory().isIram(IRAM_BASE + 0x100));
    EXPECT_FALSE(soc.memory().isIram(DRAM_BASE));
    EXPECT_EQ(soc.iramRaw()[0x100], 0x11);
}

TEST(MemorySystem, CrossLineAccessesAreSplit)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    std::vector<std::uint8_t> data(100);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);

    // Unaligned, multi-line write and read back.
    soc.memory().write(DRAM_BASE + 17, data.data(), data.size());
    std::vector<std::uint8_t> back(100);
    soc.memory().read(DRAM_BASE + 17, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(MemorySystem, FillAndCopy)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    soc.memory().fill(DRAM_BASE + 0x1000, 0x5a, 4096);
    EXPECT_EQ(soc.memory().read32(DRAM_BASE + 0x1000), 0x5a5a5a5au);

    soc.memory().copy(DRAM_BASE + 0x3000, DRAM_BASE + 0x1000, 4096);
    EXPECT_EQ(soc.memory().read32(DRAM_BASE + 0x3fff - 3), 0x5a5a5a5au);
}

TEST(MemorySystem, UnmappedAccessPanics)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    EXPECT_DEATH(soc.memory().read32(0x100), "unmapped");
}

TEST(MemorySystem, CopyCrossesTheIramDramWindows)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    std::vector<std::uint8_t> data(300);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(3 * i + 1);

    // Unaligned source near the top of iRAM, destination in cached DRAM.
    const PhysAddr iramEnd = IRAM_BASE + soc.iram().size();
    const PhysAddr src = iramEnd - data.size() - 5;
    soc.memory().write(src, data.data(), data.size());
    soc.memory().copy(DRAM_BASE + 0x2000 + 9, src, data.size());
    std::vector<std::uint8_t> back(data.size());
    soc.memory().read(DRAM_BASE + 0x2000 + 9, back.data(), back.size());
    EXPECT_EQ(back, data);

    // And back again into the very last bytes of the iRAM window.
    soc.memory().copy(iramEnd - data.size(), DRAM_BASE + 0x2000 + 9,
                      data.size());
    soc.memory().read(iramEnd - data.size(), back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(MemorySystem, FillReachesTheIramWindowEdgeButNotPast)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    const PhysAddr iramEnd = IRAM_BASE + soc.iram().size();
    soc.memory().fill(iramEnd - 100, 0x7e, 100);
    EXPECT_EQ(soc.memory().read32(iramEnd - 4), 0x7e7e7e7eu);
    // One byte past the window is unmapped (iRAM and DRAM windows are
    // not adjacent), so a straddling fill must panic, not wrap.
    EXPECT_DEATH(soc.memory().fill(iramEnd - 4, 0x00, 8), "unmapped");
}

TEST(MemorySystem, OverlappingCopyDstAboveSrc)
{
    // dst > src by less than the chunk size: a naive forward chunked
    // copy would re-read bytes it already overwrote. copy() must give
    // memmove semantics (backward chunk walk in MemorySystem::copy).
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    std::vector<std::uint8_t> data(256);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(7 * i + 11);

    soc.memory().write(DRAM_BASE + 0x100, data.data(), data.size());
    soc.memory().copy(DRAM_BASE + 0x100 + 13, DRAM_BASE + 0x100,
                      data.size());
    std::vector<std::uint8_t> back(data.size());
    soc.memory().read(DRAM_BASE + 0x100 + 13, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(MemorySystem, OverlappingCopyDstBelowSrc)
{
    // dst < src overlap is naturally safe for a forward walk; make
    // sure it stays that way.
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    std::vector<std::uint8_t> data(256);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(5 * i + 3);

    soc.memory().write(DRAM_BASE + 0x200, data.data(), data.size());
    soc.memory().copy(DRAM_BASE + 0x200 - 13, DRAM_BASE + 0x200,
                      data.size());
    std::vector<std::uint8_t> back(data.size());
    soc.memory().read(DRAM_BASE + 0x200 - 13, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(Soc, PowerCycleZeroesIramAndResetsCache)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    const auto secret = fromHex("5ec2e75ec2e75ec2");
    soc.iram().write(0x3000, secret.data(), secret.size());
    soc.memory().write32(DRAM_BASE + 0x40, 0x77777777);

    soc.powerCycle(0.007);

    // Boot ROM zeroed iRAM.
    EXPECT_FALSE(containsBytes(soc.iramRaw(), secret));
    // The cache was reset without writeback: the dirty word is gone.
    EXPECT_EQ(soc.l2().peek(DRAM_BASE + 0x40), nullptr);
}

TEST(Soc, WarmRebootPreservesIram)
{
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    const auto secret = fromHex("5ec2e75ec2e75ec2");
    soc.iram().write(0x3000, secret.data(), secret.size());

    soc.warmReboot();
    EXPECT_TRUE(containsBytes(soc.iramRaw(), secret));
}

TEST(Soc, BootOverwritesSomeDram)
{
    Soc soc(PlatformConfig::tegra3(64 * MiB));
    const auto pattern = fromHex("00aa00aa00aa00aa");
    soc.dram().fillCells(pattern);
    const std::size_t before =
        countPattern(soc.dramRaw(), pattern);

    soc.warmReboot();
    const std::size_t after = countPattern(soc.dramRaw(), pattern);
    EXPECT_LT(after, before);
    // ...but only a few percent of it (Table 2: 96.4% preserved).
    EXPECT_GT(static_cast<double>(after) / static_cast<double>(before),
              0.90);
}

TEST(Soc, PlatformDifferences)
{
    Soc tegra(PlatformConfig::tegra3(16 * MiB));
    Soc nexus(PlatformConfig::nexus4(16 * MiB));

    EXPECT_TRUE(tegra.trustzone().secureWorldAvailable());
    EXPECT_FALSE(nexus.trustzone().secureWorldAvailable());
    EXPECT_EQ(tegra.accel(), nullptr);
    EXPECT_NE(nexus.accel(), nullptr);
    EXPECT_GT(nexus.clock().frequency(), tegra.clock().frequency());
    EXPECT_GT(nexus.energy().batteryCapacity(), 0.0);
}

TEST(Firmware, RejectsUnsignedImages)
{
    Firmware firmware(BootFootprint{});
    const std::vector<std::uint8_t> image(1024, 0x90);
    EXPECT_TRUE(firmware.acceptImage(image, true));
    // The firmware-replacement attack vector from section 4.3.
    EXPECT_FALSE(firmware.acceptImage(image, false));
    EXPECT_FALSE(firmware.acceptImage({}, true));
}
