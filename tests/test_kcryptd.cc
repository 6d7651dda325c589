/**
 * @file
 * kcryptd tests: dm-crypt writes go through DmCrypt::writeBlock() one
 * block at a time, charging the block's encryption as if spread over
 * the kcryptd worker count. The worker count must change only the
 * simulated time, never the ciphertext or the energy; writes must read
 * back, and no plaintext may reach the backing device or DRAM.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/bytes.hh"
#include "core/device.hh"
#include "core/invariant_checker.hh"
#include "os/block_device.hh"
#include "os/dm_crypt.hh"

using namespace sentry;
using namespace sentry::core;
using namespace sentry::os;

namespace
{

struct KcryptdFixture : testing::Test
{
    KcryptdFixture()
        : device(hw::PlatformConfig::tegra3(64 * MiB)),
          diskA(device.soc().clock(), 2 * MiB),
          diskB(device.soc().clock(), 2 * MiB)
    {
        device.sentry().registerCryptoProviders();
    }

    std::unique_ptr<DmCrypt>
    makeDmCrypt(RamBlockDevice &disk, unsigned workers)
    {
        const auto key = fromHex("000102030405060708090a0b0c0d0e0f");
        return std::make_unique<DmCrypt>(
            disk, device.kernel().cryptoApi().allocCipher("aes", key),
            workers);
    }

    /** A recognisable plaintext payload of @p nblocks blocks. */
    static std::vector<std::uint8_t>
    plaintext(std::size_t nblocks)
    {
        std::vector<std::uint8_t> data(nblocks * BLOCK_SIZE);
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<std::uint8_t>(0x5A ^ (i * 13));
        return data;
    }

    /** Write @p data to block @p first onward, one writeBlock() each. */
    static void
    writeAll(DmCrypt &dm, std::uint64_t first,
             std::span<const std::uint8_t> data)
    {
        for (std::size_t off = 0; off < data.size(); off += BLOCK_SIZE)
            dm.writeBlock(first + off / BLOCK_SIZE,
                          data.subspan(off, BLOCK_SIZE));
    }

    Device device;
    RamBlockDevice diskA, diskB;
};

} // namespace

TEST_F(KcryptdFixture, WorkerCountDoesNotChangeCiphertext)
{
    auto one = makeDmCrypt(diskA, 1);
    auto four = makeDmCrypt(diskB, 4);
    const auto data = plaintext(8);

    writeAll(*one, 0, data);
    writeAll(*four, 0, data);

    const auto a = diskA.raw();
    const auto b = diskB.raw();
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST_F(KcryptdFixture, MoreWorkersChargeFewerCyclesAndTheSameEnergy)
{
    auto one = makeDmCrypt(diskA, 1);
    auto four = makeDmCrypt(diskB, 4);
    const auto data = plaintext(12);
    SimClock &clock = device.soc().clock();
    hw::EnergyModel &energy = device.soc().energy();

    struct Charge
    {
        Cycles cycles;
        double aesJoules;
    };
    const auto charge = [&](DmCrypt &dm) {
        energy.reset();
        const Cycles c0 = clock.now();
        writeAll(dm, 3, data);
        return Charge{clock.now() - c0,
                      energy.consumed(hw::EnergyCategory::CpuAes)};
    };
    const Charge serial = charge(*one);
    const Charge spread = charge(*four);

    EXPECT_LT(spread.cycles, serial.cycles);
    EXPECT_GT(spread.aesJoules, 0.0);
    EXPECT_EQ(spread.aesJoules, serial.aesJoules);
    const auto a = diskA.raw();
    const auto b = diskB.raw();
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST_F(KcryptdFixture, BatchRoundTripsThroughReads)
{
    // A run of ten blocks, written one writeBlock() at a time.
    auto dm = makeDmCrypt(diskA, 4);
    const auto data = plaintext(10);
    writeAll(*dm, 5, data);

    std::vector<std::uint8_t> back(BLOCK_SIZE);
    for (std::size_t b = 0; b < 10; ++b) {
        dm->readBlock(5 + b, back);
        EXPECT_EQ(0, std::memcmp(back.data(),
                                 data.data() + b * BLOCK_SIZE, BLOCK_SIZE))
            << "block " << b;
    }
}

TEST_F(KcryptdFixture, NoPlaintextOnDiskOrInDram)
{
    auto dm = makeDmCrypt(diskA, 4);
    const auto data = plaintext(8);
    const std::vector<std::uint8_t> marker(data.begin(), data.begin() + 64);

    writeAll(*dm, 0, data);

    EXPECT_FALSE(containsBytes(diskA.raw(), marker));
    EXPECT_FALSE(containsBytes(device.soc().dram().raw(), marker));

    // The programmatic audit agrees (markers checked among the rest).
    InvariantChecker checker(device.kernel(), device.sentry());
    checker.addMarker({"dm-crypt", marker, true});
    EXPECT_TRUE(checker.checkLive().ok);
}
