/**
 * @file
 * Multi-application scenarios: several sensitive and non-sensitive
 * processes coexisting, two background apps sharing one pager pool,
 * and app churn (create/destroy) across lock cycles.
 */

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "core/device.hh"

using namespace sentry;
using namespace sentry::core;
using namespace sentry::os;

namespace
{

std::vector<std::uint8_t>
secretFor(int tag)
{
    std::vector<std::uint8_t> secret(16);
    for (int i = 0; i < 16; ++i)
        secret[i] = static_cast<std::uint8_t>(0xA0 + tag * 7 + i * 3);
    return secret;
}

Process &
makeApp(Device &device, const std::string &name, int tag,
        std::size_t pages)
{
    Process &p = device.kernel().createProcess(name);
    const Vma &vma = device.kernel().addVma(p, "heap", VmaType::Heap,
                                            pages * PAGE_SIZE);
    const auto secret = secretFor(tag);
    for (std::size_t i = 0; i < pages; ++i) {
        device.kernel().writeVirt(p, vma.base + i * PAGE_SIZE + 32,
                                  secret.data(), secret.size());
    }
    return p;
}

} // namespace

TEST(MultiApp, OnlySensitiveAppsAreEncrypted)
{
    Device device(hw::PlatformConfig::tegra3(64 * MiB));
    Process &mail = makeApp(device, "mail", 1, 8);
    Process &game = makeApp(device, "game", 2, 8);
    Process &bank = makeApp(device, "bank", 3, 8);
    device.sentry().markSensitive(mail);
    device.sentry().markSensitive(bank);

    device.kernel().lockScreen();
    const hw::CowBytes &dram = device.soc().dram().cells();
    EXPECT_FALSE(dram.contains(secretFor(1)));
    EXPECT_TRUE(dram.contains(secretFor(2))); // game: unprotected
    EXPECT_FALSE(dram.contains(secretFor(3)));

    EXPECT_FALSE(mail.schedulable());
    EXPECT_TRUE(game.schedulable());
    EXPECT_FALSE(bank.schedulable());
}

TEST(MultiApp, EachAppDecryptsIndependentlyAfterUnlock)
{
    Device device(hw::PlatformConfig::tegra3(64 * MiB));
    Process &a = makeApp(device, "a", 4, 4);
    Process &b = makeApp(device, "b", 5, 4);
    device.sentry().markSensitive(a);
    device.sentry().markSensitive(b);

    device.kernel().lockScreen();
    device.kernel().unlockScreen("0000");

    // Touch only app a: app b must stay encrypted.
    std::uint8_t buf[16];
    const VirtAddr aHeap = a.addressSpace().vmas()[0].base;
    device.kernel().readVirt(a, aHeap + 32, buf, 16);
    EXPECT_EQ(toHex({buf, 16}), toHex(secretFor(4)));

    const VirtAddr bHeap = b.addressSpace().vmas()[0].base;
    EXPECT_TRUE(b.pageTable().find(bHeap)->encrypted);
    device.kernel().readVirt(b, bHeap + 32, buf, 16);
    EXPECT_EQ(toHex({buf, 16}), toHex(secretFor(5)));
}

TEST(MultiApp, TwoBackgroundAppsShareThePagerPool)
{
    SentryOptions options;
    options.backgroundMode = true;
    options.pagerWays = 1; // 32 frames: force cross-app eviction
    Device device(hw::PlatformConfig::tegra3(64 * MiB), options);

    Process &mail = makeApp(device, "mail", 6, 24);
    Process &music = makeApp(device, "music", 7, 24);
    for (Process *p : {&mail, &music}) {
        device.sentry().markSensitive(*p);
        device.sentry().markBackground(*p);
    }
    device.kernel().lockScreen();

    // Interleave accesses across both apps, overcommitting the pool.
    std::uint8_t buf[16];
    const VirtAddr mailHeap = mail.addressSpace().vmas()[0].base;
    const VirtAddr musicHeap = music.addressSpace().vmas()[0].base;
    for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < 24; ++i) {
            device.kernel().readVirt(mail, mailHeap + i * PAGE_SIZE + 32,
                                     buf, 16);
            EXPECT_EQ(toHex({buf, 16}), toHex(secretFor(6)));
            device.kernel().readVirt(music,
                                     musicHeap + i * PAGE_SIZE + 32, buf,
                                     16);
            EXPECT_EQ(toHex({buf, 16}), toHex(secretFor(7)));
        }
    }
    EXPECT_GT(device.sentry().pager()->stats().evictions, 0u);

    // The invariant holds with the pool shared across processes.
    device.soc().l2().cleanAllMasked();
    const hw::CowBytes &dram = device.soc().dram().cells();
    EXPECT_FALSE(dram.contains(secretFor(6)));
    EXPECT_FALSE(dram.contains(secretFor(7)));

    device.kernel().unlockScreen("0000");
    device.kernel().readVirt(mail, mailHeap + 32, buf, 16);
    EXPECT_EQ(toHex({buf, 16}), toHex(secretFor(6)));
}

TEST(MultiApp, AppChurnAcrossLockCycles)
{
    Device device(hw::PlatformConfig::tegra3(64 * MiB));
    for (int cycle = 0; cycle < 4; ++cycle) {
        Process &app =
            makeApp(device, "ephemeral" + std::to_string(cycle),
                    10 + cycle, 8);
        device.sentry().markSensitive(app);

        device.kernel().lockScreen();
        const hw::CowBytes &dram = device.soc().dram().cells();
        EXPECT_FALSE(dram.contains(secretFor(10 + cycle)));
        device.kernel().unlockScreen("0000");

        device.kernel().destroyProcess(app);
        device.kernel().zeroFreedPages();
        device.soc().l2().cleanAllMasked();
        // Dead app's data (decrypted or not) is gone for good.
        EXPECT_FALSE(dram.contains(secretFor(10 + cycle)));
    }
}

TEST(MultiApp, StatsAggregateAcrossApps)
{
    Device device(hw::PlatformConfig::tegra3(64 * MiB));
    Process &a = makeApp(device, "a", 20, 8);
    Process &b = makeApp(device, "b", 21, 12);
    device.sentry().markSensitive(a);
    device.sentry().markSensitive(b);

    device.kernel().lockScreen();
    EXPECT_EQ(device.sentry().stats().bytesEncryptedOnLock,
              (8 + 12) * PAGE_SIZE);
}
