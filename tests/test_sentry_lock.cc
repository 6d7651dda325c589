/**
 * @file
 * Sentry encrypt-on-lock / decrypt-on-unlock tests: the core security
 * invariant (no sensitive plaintext in DRAM while locked), selective
 * encryption, shared-page policy, DMA-region eager decryption, lazy
 * on-demand decryption, and scheduling of encrypted processes.
 */

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "core/device.hh"

using namespace sentry;
using namespace sentry::core;
using namespace sentry::os;

namespace
{

const auto SECRET = fromHex("5ec2e7a11ce5c0ffeec0de5ec2e7a11c");

struct SentryFixture : testing::Test
{
    SentryFixture() : device(hw::PlatformConfig::tegra3(64 * MiB)) {}

    /** Create a process with a populated heap holding SECRET. */
    Process &
    makeApp(const std::string &name, std::size_t heap_bytes = 1 * MiB)
    {
        Process &p = device.kernel().createProcess(name);
        const Vma &vma = device.kernel().addVma(p, "heap", VmaType::Heap,
                                                heap_bytes);
        std::vector<std::uint8_t> page(PAGE_SIZE, 0x20);
        std::copy(SECRET.begin(), SECRET.end(), page.begin() + 128);
        for (std::size_t off = 0; off < heap_bytes; off += PAGE_SIZE) {
            device.kernel().writeVirt(p, vma.base + off, page.data(),
                                      PAGE_SIZE);
        }
        return p;
    }

    bool
    secretInDram()
    {
        return device.soc().dram().cells().contains(SECRET);
    }

    Device device;
};

} // namespace

TEST_F(SentryFixture, LockEncryptsSensitiveProcessMemory)
{
    Process &app = makeApp("mail");
    device.sentry().markSensitive(app);

    device.kernel().lockScreen();

    EXPECT_FALSE(secretInDram());
    EXPECT_GT(device.sentry().stats().bytesEncryptedOnLock, 0u);
    EXPECT_EQ(device.sentry().stats().lockCount, 1u);
    // Every heap page is now marked encrypted and trap-on-access.
    app.pageTable().forEach([](VirtAddr, Pte &pte) {
        EXPECT_TRUE(pte.encrypted);
        EXPECT_FALSE(pte.young);
    });
}

TEST_F(SentryFixture, NonSensitiveProcessesAreLeftAlone)
{
    Process &app = makeApp("game");
    (void)app;
    device.kernel().lockScreen();
    EXPECT_TRUE(secretInDram()); // unprotected, by configuration
    EXPECT_EQ(device.sentry().stats().bytesEncryptedOnLock, 0u);
}

TEST_F(SentryFixture, LockedSensitiveProcessIsUnschedulable)
{
    Process &app = makeApp("mail");
    device.sentry().markSensitive(app);
    device.kernel().lockScreen();

    EXPECT_FALSE(app.schedulable());
    device.kernel().unlockScreen("0000");
    EXPECT_TRUE(app.schedulable());
}

TEST_F(SentryFixture, UnlockDecryptsOnDemandOnly)
{
    Process &app = makeApp("mail", 16 * PAGE_SIZE);
    device.sentry().markSensitive(app);
    const VirtAddr heap = app.addressSpace().vmas()[0].base;

    device.kernel().lockScreen();
    device.kernel().unlockScreen("0000");

    // Nothing was decrypted eagerly (no DMA regions here).
    EXPECT_EQ(device.sentry().stats().bytesDecryptedEager, 0u);

    // Touch one page: exactly one page's worth of on-demand decrypt.
    std::uint8_t buf[64];
    device.kernel().readVirt(app, heap + 128, buf, SECRET.size());
    EXPECT_EQ(device.sentry().stats().bytesDecryptedOnDemand, PAGE_SIZE);
    EXPECT_EQ(toHex({buf, SECRET.size()}), toHex(SECRET));

    // Untouched pages stay encrypted.
    const Pte *untouched = app.pageTable().find(heap + 5 * PAGE_SIZE);
    EXPECT_TRUE(untouched->encrypted);
}

TEST_F(SentryFixture, RepeatedTouchesDecryptOnlyOnce)
{
    Process &app = makeApp("mail", 8 * PAGE_SIZE);
    device.sentry().markSensitive(app);
    const VirtAddr heap = app.addressSpace().vmas()[0].base;

    device.kernel().lockScreen();
    device.kernel().unlockScreen("0000");

    std::uint8_t buf[8];
    for (int i = 0; i < 5; ++i)
        device.kernel().readVirt(app, heap, buf, 8);
    EXPECT_EQ(device.sentry().stats().bytesDecryptedOnDemand, PAGE_SIZE);
    EXPECT_EQ(device.sentry().stats().faultsServiced, 1u);
}

TEST_F(SentryFixture, DataSurvivesFullLockUnlockCycle)
{
    Process &app = makeApp("mail", 32 * PAGE_SIZE);
    device.sentry().markSensitive(app);
    const VirtAddr heap = app.addressSpace().vmas()[0].base;

    for (int cycle = 0; cycle < 3; ++cycle) {
        device.kernel().lockScreen();
        EXPECT_FALSE(secretInDram());
        device.kernel().unlockScreen("0000");

        std::uint8_t buf[16];
        device.kernel().readVirt(app, heap + 7 * PAGE_SIZE + 128, buf,
                                 16);
        EXPECT_EQ(toHex({buf, 16}), toHex(SECRET)) << "cycle " << cycle;
    }
}

TEST_F(SentryFixture, DmaRegionsAreDecryptedEagerly)
{
    Process &app = device.kernel().createProcess("maps");
    const Vma &heap =
        device.kernel().addVma(app, "heap", VmaType::Heap, 8 * PAGE_SIZE);
    const Vma &dma = device.kernel().addVma(app, "gpu", VmaType::DmaRegion,
                                            4 * PAGE_SIZE);
    (void)heap;
    device.sentry().markSensitive(app);

    device.kernel().lockScreen();
    device.kernel().unlockScreen("0000");

    // The DMA region is whole without any faulting access...
    EXPECT_EQ(device.sentry().stats().bytesDecryptedEager,
              4 * PAGE_SIZE);
    app.pageTable().forEach([&](VirtAddr va, Pte &pte) {
        if (dma.contains(va)) {
            EXPECT_FALSE(pte.encrypted);
        }
    });
}

TEST_F(SentryFixture, SharedWithNonSensitivePagesAreSkipped)
{
    Process &app = device.kernel().createProcess("mail");
    device.kernel().addVma(app, "private", VmaType::Heap, 4 * PAGE_SIZE);
    const Vma &shared = device.kernel().addVma(
        app, "shared", VmaType::Heap, 4 * PAGE_SIZE,
        SharePolicy::SharedWithNonSensitive);
    device.sentry().markSensitive(app);

    device.kernel().lockScreen();

    app.pageTable().forEach([&](VirtAddr va, Pte &pte) {
        if (shared.contains(va))
            EXPECT_FALSE(pte.encrypted) << "shared page encrypted";
        else
            EXPECT_TRUE(pte.encrypted) << "private page skipped";
    });
}

TEST_F(SentryFixture, SharedAmongSensitiveOnlyIsEncrypted)
{
    Process &app = device.kernel().createProcess("mail");
    const Vma &shared = device.kernel().addVma(
        app, "shm", VmaType::Heap, 2 * PAGE_SIZE,
        SharePolicy::SharedSensitiveOnly);
    device.sentry().markSensitive(app);

    device.kernel().lockScreen();
    app.pageTable().forEach([&](VirtAddr va, Pte &pte) {
        if (shared.contains(va)) {
            EXPECT_TRUE(pte.encrypted);
        }
    });
}

TEST_F(SentryFixture, LockWaitsForFreedPageZeroing)
{
    Process &doomed = makeApp("doomed", 16 * PAGE_SIZE);
    device.kernel().destroyProcess(doomed);
    ASSERT_GT(device.kernel().freedPendingBytes(), 0u);

    Process &app = makeApp("mail", 4 * PAGE_SIZE);
    device.sentry().markSensitive(app);
    device.kernel().lockScreen();

    EXPECT_EQ(device.kernel().freedPendingBytes(), 0u);
    EXPECT_FALSE(secretInDram()); // including the freed pages
}

TEST_F(SentryFixture, VolatileKeyNeverInDram)
{
    Process &app = makeApp("mail", 4 * PAGE_SIZE);
    device.sentry().markSensitive(app);

    const RootKey key = device.sentry().keys().volatileKey();
    device.kernel().lockScreen();
    device.soc().l2().cleanAllMasked();

    const hw::CowBytes &dram = device.soc().dram().cells();
    EXPECT_FALSE(dram.contains(key));
    EXPECT_TRUE(device.soc().iram().cells().contains(key));
}

TEST_F(SentryFixture, LockEpochChangesCiphertext)
{
    Process &app = makeApp("mail", 4 * PAGE_SIZE);
    device.sentry().markSensitive(app);
    const VirtAddr heap = app.addressSpace().vmas()[0].base;
    const PhysAddr frame = app.pageTable().find(heap)->frame;

    device.kernel().lockScreen();
    std::vector<std::uint8_t> ct1(PAGE_SIZE);
    device.soc().memory().read(frame, ct1.data(), ct1.size());
    device.kernel().unlockScreen("0000");
    std::uint8_t buf[8];
    device.kernel().readVirt(app, heap, buf, 8); // decrypt the page

    device.kernel().lockScreen();
    std::vector<std::uint8_t> ct2(PAGE_SIZE);
    device.soc().memory().read(frame, ct2.data(), ct2.size());

    // Same plaintext, different lock epoch => different ciphertext.
    EXPECT_NE(toHex(ct1), toHex(ct2));
}

TEST_F(SentryFixture, StrawmanFullMemoryEncryptionIsProhibitive)
{
    const double seconds = device.sentry().encryptAllMemoryStrawman();
    // Scaled: 64 MiB at the anchored 34 MB/s.
    EXPECT_NEAR(seconds,
                static_cast<double>(64 * MiB) / 34e6, 0.2);
    EXPECT_GT(device.soc().energy().totalConsumed(), 0.0);
}

TEST(SentryNexus, DegradesToIramWhenLockingUnavailable)
{
    SentryOptions options;
    options.placement = AesPlacement::LockedL2;
    options.backgroundMode = true;
    Device device(hw::PlatformConfig::nexus4(32 * MiB), options);

    EXPECT_EQ(device.sentry().placement(), AesPlacement::Iram);
    EXPECT_EQ(device.sentry().pager(), nullptr);
}

TEST(SentryPlacements, AllPlacementsProtectDramFromPlaintext)
{
    for (AesPlacement placement :
         {AesPlacement::Iram, AesPlacement::LockedL2}) {
        SentryOptions options;
        options.placement = placement;
        Device device(hw::PlatformConfig::tegra3(64 * MiB), options);
        ASSERT_EQ(device.sentry().placement(), placement);

        Process &app = device.kernel().createProcess("app");
        const Vma &vma = device.kernel().addVma(app, "heap",
                                                VmaType::Heap,
                                                8 * PAGE_SIZE);
        device.kernel().writeVirt(app, vma.base + 64, SECRET.data(),
                                  SECRET.size());
        device.sentry().markSensitive(app);

        device.kernel().lockScreen();
        device.soc().l2().cleanAllMasked();
        EXPECT_FALSE(device.soc().dram().cells().contains(SECRET))
            << aesPlacementName(placement);
    }
}
