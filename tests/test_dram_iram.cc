/**
 * @file
 * DRAM and iRAM device tests: addressing, bounds, power-loss decay,
 * and firmware zeroization.
 */

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "common/rng.hh"
#include "hw/dram.hh"
#include "hw/iram.hh"

using namespace sentry;
using namespace sentry::hw;

TEST(Dram, ReadBackWhatWasWritten)
{
    Dram dram(1 * MiB);
    const auto data = fromHex("00112233445566778899aabbccddeeff");
    dram.busWrite(0x1234, data.data(), data.size());

    std::vector<std::uint8_t> back(data.size());
    dram.busRead(0x1234, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(Dram, RawViewAliasesBusView)
{
    Dram dram(1 * MiB);
    const std::uint8_t byte = 0x5a;
    dram.busWrite(0x800, &byte, 1);
    EXPECT_EQ(dram.raw()[0x800], 0x5a);
}

TEST(Dram, OutOfRangeAccessPanics)
{
    Dram dram(64 * KiB);
    std::uint8_t buf[16];
    EXPECT_DEATH(dram.busRead(64 * KiB - 8, buf, 16), "out of range");
    EXPECT_DEATH(dram.busWrite(64 * KiB, buf, 1), "out of range");
}

TEST(Dram, RejectsUnalignedSize)
{
    EXPECT_EXIT(Dram dram(1234), testing::ExitedWithCode(1), "multiple");
}

TEST(Dram, PowerLossDecaysContents)
{
    Dram dram(1 * MiB);
    const auto pattern = fromHex("deadbeefcafef00d");
    dram.fillCells(pattern);
    const std::size_t before = countPattern(dram.raw(), pattern);

    Rng rng(1);
    dram.powerLoss(2.0, 22.0, rng);
    EXPECT_LT(countPattern(dram.raw(), pattern), before / 100);
}

TEST(Iram, ReadBackAndZeroize)
{
    Iram iram(256 * KiB);
    const auto data = fromHex("0102030405060708");
    iram.write(0x100, data.data(), data.size());

    std::vector<std::uint8_t> back(data.size());
    iram.read(0x100, back.data(), back.size());
    EXPECT_EQ(back, data);

    iram.zeroize();
    iram.read(0x100, back.data(), back.size());
    for (std::uint8_t b : back)
        EXPECT_EQ(b, 0);
}

TEST(Iram, OutOfRangePanics)
{
    Iram iram(256 * KiB);
    std::uint8_t buf[8];
    EXPECT_DEATH(iram.read(256 * KiB, buf, 1), "out of range");
}

TEST(Iram, SramSurvivesBriefPowerLossBetterThanDram)
{
    // The physical comparison behind section 4.1: SRAM decays more
    // slowly — it is the boot-ROM zeroing, not physics, that protects
    // iRAM.
    Iram iram(256 * KiB);
    Dram dram(256 * KiB);
    const auto pattern = fromHex("a1b2c3d4e5f60718");
    iram.fillCells(pattern);
    dram.fillCells(pattern);

    Rng rngA(2), rngB(2);
    iram.powerLoss(1.0, 22.0, rngA);
    dram.powerLoss(1.0, 22.0, rngB);

    EXPECT_GT(countPattern(iram.raw(), pattern),
              countPattern(dram.raw(), pattern));
}
