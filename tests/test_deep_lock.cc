/**
 * @file
 * Deep-lock tests: five bad PINs trigger the brute-force response —
 * Sentry scrubs the volatile root key and AES state from the SoC, so
 * the encrypted pages become permanently undecryptable, no matter who
 * later controls the device.
 */

#include <gtest/gtest.h>

#include "attacks/cold_boot.hh"
#include "common/bytes.hh"
#include "core/device.hh"

using namespace sentry;
using namespace sentry::core;
using namespace sentry::os;

namespace
{

const auto SECRET = fromHex("deadbea70000feedfeed0000deadbea7");

struct DeepLockFixture : testing::Test
{
    DeepLockFixture() : device(hw::PlatformConfig::tegra3(64 * MiB))
    {
        device.kernel().setPin("4242");
        app = &device.kernel().createProcess("wallet");
        const Vma &vma = device.kernel().addVma(*app, "heap",
                                                VmaType::Heap,
                                                8 * PAGE_SIZE);
        heap = vma.base;
        device.kernel().writeVirt(*app, heap + 32, SECRET.data(),
                                  SECRET.size());
        device.sentry().markSensitive(*app);
        device.kernel().lockScreen();
    }

    void
    bruteForce()
    {
        for (int i = 0; i < 5; ++i)
            EXPECT_FALSE(device.kernel().unlockScreen("0000"));
    }

    Device device;
    Process *app;
    VirtAddr heap;
};

} // namespace

TEST_F(DeepLockFixture, FiveBadPinsScrubTheKeys)
{
    const RootKey key = device.sentry().keys().volatileKey();
    bruteForce();

    EXPECT_EQ(device.kernel().powerState(), PowerState::DeepLock);
    EXPECT_TRUE(device.sentry().keysDestroyed());
    EXPECT_FALSE(containsBytes(device.soc().iramRaw(),
                               {key.data(), key.size()}));
}

TEST_F(DeepLockFixture, DataIsUnrecoverableEvenWithTheRightPin)
{
    bruteForce();
    // Deep lock: the correct PIN is no longer accepted at all.
    EXPECT_FALSE(device.kernel().unlockScreen("4242"));
    EXPECT_FALSE(device.soc().dram().cells().contains(SECRET));
}

TEST_F(DeepLockFixture, EncryptedPagesReadBackAsZeroesAfterScrub)
{
    bruteForce();
    // Even privileged code that bypasses the UI lock (the strongest
    // attacker) gets zero-filled pages: the key is gone.
    std::uint8_t buf[16];
    device.kernel().readVirt(*app, heap + 32, buf, 16);
    EXPECT_EQ(toHex({buf, 16}), std::string(32, '0'));
    EXPECT_EQ(device.sentry().stats().bytesWipedAfterDeepLock,
              PAGE_SIZE);
}

TEST_F(DeepLockFixture, ColdBootAfterDeepLockFindsNothing)
{
    bruteForce();
    attacks::ColdBootAttack attack(
        attacks::ColdBootVariant::OsReboot); // strongest: no power loss
    EXPECT_FALSE(
        attack.run(device.soc(), SECRET, "deep-locked wallet")
            .secretRecovered);
}
