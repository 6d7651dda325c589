/**
 * @file
 * End-to-end integration tests: the full Sentry story on both
 * platforms — sensitive apps, lock/unlock cycles, background mail
 * while locked, dm-crypt over the protected cipher, and the complete
 * attack gauntlet against one configured device.
 */

#include <gtest/gtest.h>

#include "apps/synthetic_app.hh"
#include "attacks/bus_monitor_attack.hh"
#include "attacks/cold_boot.hh"
#include "attacks/dma_attack.hh"
#include "common/bytes.hh"
#include "core/device.hh"
#include "os/buffer_cache.hh"
#include "os/dm_crypt.hh"

using namespace sentry;
using namespace sentry::attacks;
using namespace sentry::core;
using namespace sentry::os;

namespace
{
const auto SECRET = fromHex("ca11ab1eca11ab1eca11ab1eca11ab1e");
} // namespace

TEST(Integration, TegraFullStack_LockBackgroundUnlockAttack)
{
    SentryOptions options;
    options.placement = AesPlacement::LockedL2;
    options.backgroundMode = true;
    options.pagerWays = 2;
    Device device(hw::PlatformConfig::tegra3(64 * MiB), options);
    ASSERT_EQ(device.sentry().placement(), AesPlacement::LockedL2);

    // A foreground app and a background mail app, both sensitive.
    Process &mail = device.kernel().createProcess("mail");
    const Vma &mailHeap = device.kernel().addVma(mail, "heap",
                                                 VmaType::Heap,
                                                 32 * PAGE_SIZE);
    device.kernel().writeVirt(mail, mailHeap.base + 64, SECRET.data(),
                              SECRET.size());
    device.sentry().markSensitive(mail);
    device.sentry().markBackground(mail);

    Process &fg = device.kernel().createProcess("browser");
    const Vma &fgHeap =
        device.kernel().addVma(fg, "heap", VmaType::Heap, 16 * PAGE_SIZE);
    device.kernel().writeVirt(fg, fgHeap.base, SECRET.data(),
                              SECRET.size());
    device.sentry().markSensitive(fg);

    // Lock: DRAM is clean of the secret.
    device.kernel().lockScreen();
    EXPECT_FALSE(device.soc().dram().cells().contains(SECRET));
    EXPECT_FALSE(fg.schedulable());
    EXPECT_TRUE(mail.schedulable());

    // Background mail keeps working on its (on-SoC) data while locked.
    std::uint8_t buf[16];
    device.kernel().readVirt(mail, mailHeap.base + 64, buf, 16);
    EXPECT_EQ(toHex({buf, 16}), toHex(SECRET));
    const auto newMail = fromHex("deadd00ddeadd00d");
    device.kernel().writeVirt(mail, mailHeap.base + 4096, newMail.data(),
                              newMail.size());
    device.soc().l2().cleanAllMasked();
    EXPECT_FALSE(device.soc().dram().cells().contains(SECRET));
    EXPECT_FALSE(device.soc().dram().cells().contains(newMail));

    // DMA attack while locked: nothing.
    DmaAttack dma;
    EXPECT_FALSE(
        dma.run(device.soc(), SECRET, "locked device").secretRecovered);

    // Unlock and verify everything (including the mail written while
    // locked) is intact.
    ASSERT_TRUE(device.kernel().unlockScreen("0000"));
    device.kernel().readVirt(fg, fgHeap.base, buf, 16);
    EXPECT_EQ(toHex({buf, 16}), toHex(SECRET));
    device.kernel().readVirt(mail, mailHeap.base + 4096, buf, 8);
    EXPECT_EQ(toHex({buf, 8}), toHex(newMail));
}

TEST(Integration, ColdBootGauntletOnLockedTegra)
{
    for (auto variant : {ColdBootVariant::OsReboot,
                         ColdBootVariant::DeviceReflash,
                         ColdBootVariant::TwoSecondReset}) {
        Device device(hw::PlatformConfig::tegra3(32 * MiB));
        Process &app = device.kernel().createProcess("app");
        const Vma &heap = device.kernel().addVma(app, "heap",
                                                 VmaType::Heap,
                                                 8 * PAGE_SIZE);
        device.kernel().writeVirt(app, heap.base, SECRET.data(),
                                  SECRET.size());
        device.sentry().markSensitive(app);
        device.kernel().lockScreen();

        ColdBootAttack attack(variant);
        EXPECT_FALSE(attack.run(device.soc(), SECRET, "locked")
                         .secretRecovered)
            << coldBootVariantName(variant);
    }
}

TEST(Integration, NexusSecureOnSuspendWithoutCacheLocking)
{
    // The Nexus 4 prototype: iRAM-only Sentry, no background mode.
    Device device(hw::PlatformConfig::nexus4(64 * MiB));
    EXPECT_EQ(device.sentry().placement(), AesPlacement::Iram);

    apps::SyntheticApp twitter(device.kernel(),
                               apps::AppProfile::byName("Twitter"));
    twitter.populate(SECRET);
    device.sentry().markSensitive(twitter.process());

    device.kernel().lockScreen();
    EXPECT_FALSE(device.soc().dram().cells().contains(SECRET));
    EXPECT_FALSE(twitter.process().schedulable());

    device.kernel().unlockScreen("0000");
    const double resumeSeconds = twitter.resume();
    // Figure 2 ballpark: well under 2 seconds to resume.
    EXPECT_LT(resumeSeconds, 2.0);
    EXPECT_GT(resumeSeconds, 0.05);
}

TEST(Integration, DmCryptUnderSentryKeepsDiskAndDramClean)
{
    Device device(hw::PlatformConfig::tegra3(64 * MiB));
    device.sentry().registerCryptoProviders();

    RamBlockDevice disk(device.soc().clock(), 2 * MiB);
    const RootKey key = device.sentry().keys().volatileKey();
    DmCrypt dm(disk,
               device.kernel().cryptoApi().allocCipher(
                   "aes", {key.data(), key.size()}));
    BufferCache cache(device.soc().clock(), dm, 1 * MiB);

    // Write a secret-bearing file block.
    std::vector<std::uint8_t> block(BLOCK_SIZE, 0);
    std::copy(SECRET.begin(), SECRET.end(), block.begin() + 100);
    cache.write(17, block, false);

    // The disk holds ciphertext; DRAM holds neither key nor schedule.
    EXPECT_FALSE(containsBytes(disk.raw(), SECRET));
    device.soc().l2().cleanAllMasked();
    EXPECT_FALSE(
        device.soc().dram().cells().contains({key.data(), key.size()}));

    std::vector<std::uint8_t> back(BLOCK_SIZE);
    cache.read(17, back, true); // direct I/O: through the crypto path
    EXPECT_EQ(toHex(back), toHex(block));
}

TEST(Integration, BusMonitorGauntletDuringLockCycle)
{
    Device device(hw::PlatformConfig::tegra3(32 * MiB));
    Process &app = device.kernel().createProcess("app");
    const Vma &heap =
        device.kernel().addVma(app, "heap", VmaType::Heap, 8 * PAGE_SIZE);
    device.kernel().writeVirt(app, heap.base, SECRET.data(),
                              SECRET.size());
    device.sentry().markSensitive(app);
    const RootKey key = device.sentry().keys().volatileKey();

    // Probe attached for the WHOLE lock: it sees the encrypt-on-lock
    // traffic, the lock period, and the ciphertext writebacks — but
    // never the key (it lives in iRAM and registers only).
    BusMonitorAttack attack(device.soc());
    attack.startCapture();
    device.kernel().lockScreen();
    device.soc().l2().cleanAllMasked();

    EXPECT_FALSE(attack
                     .analyzeForSecret({key.data(), key.size()},
                                       "volatile key")
                     .secretRecovered);
    EXPECT_GT(attack.monitor().bytesObserved(), 0u);
}

TEST(Integration, BatteryBudgetFor150DailyUnlocks)
{
    // The paper's closing number: ~2% of battery per day to protect an
    // app at 150 lock/unlock cycles.
    Device device(hw::PlatformConfig::nexus4(128 * MiB));
    apps::SyntheticApp maps(device.kernel(),
                            apps::AppProfile::byName("Maps"));
    maps.populate({});
    device.sentry().markSensitive(maps.process());

    device.soc().energy().reset();
    device.kernel().lockScreen();
    device.kernel().unlockScreen("0000");
    maps.resume();
    const double perCycle = device.soc().energy().totalConsumed();

    const double dailyFraction =
        150.0 * perCycle / device.soc().energy().batteryCapacity();
    EXPECT_GT(dailyFraction, 0.005);
    EXPECT_LT(dailyFraction, 0.06);
}
