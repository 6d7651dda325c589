/**
 * @file
 * InvariantChecker::checkLive tests: every live check passes on a
 * correctly configured device and fails, with its exact "check —
 * detail" text, when its misconfiguration or leak is deliberately
 * introduced.
 */

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "core/device.hh"
#include "core/invariant_checker.hh"

using namespace sentry;
using namespace sentry::core;
using namespace sentry::os;

namespace
{

const auto SECRET = fromHex("a0d17a0d17a0d17a0d17a0d17a0d1700");

struct AuditFixture : testing::Test
{
    AuditFixture()
        : device(hw::PlatformConfig::tegra3(64 * MiB)),
          checker(device.kernel(), device.sentry())
    {
        app = &device.kernel().createProcess("app");
        const Vma &vma = device.kernel().addVma(*app, "heap",
                                                VmaType::Heap,
                                                8 * PAGE_SIZE);
        heap = vma.base;
        device.kernel().writeVirt(*app, heap, SECRET.data(),
                                  SECRET.size());
        device.sentry().markSensitive(*app);
        checker.addMarker({"app", SECRET, true});
    }

    /** @return checkLive()'s detail: empty when every check passed. */
    std::string
    audit()
    {
        const CheckOutcome outcome = checker.checkLive();
        EXPECT_EQ(outcome.ok, outcome.detail.empty());
        return outcome.detail;
    }

    /** Store @p bytes straight into a DRAM frame no process maps. */
    void
    plantInDram(std::span<const std::uint8_t> bytes)
    {
        const PhysAddr frame = device.kernel().allocator().allocFrame();
        device.soc().dram().writeCells(frame - DRAM_BASE, bytes.data(),
                                       bytes.size());
    }

    /** Decrypt the heap's first page in place while locked, as a buggy
     * component would. */
    Pte &
    forceDecryptHeap()
    {
        Pte *pte = app->pageTable().find(heap);
        device.sentry().engine().cbcDecryptPhys(
            pte->frame, PAGE_SIZE, device.sentry().pageIv(*app, heap));
        pte->encrypted = false;
        pte->young = true;
        return *pte;
    }

    /** Destroy a process after the lock hook ran, bypassing the
     * zero-thread wait (the ablation). */
    void
    leaveFreedPages()
    {
        Process &doomed = device.kernel().createProcess("doomed");
        device.kernel().addVma(doomed, "heap", VmaType::Heap,
                               4 * PAGE_SIZE);
        device.kernel().destroyProcess(doomed);
    }

    Device device;
    InvariantChecker checker;
    Process *app;
    VirtAddr heap;
};

} // namespace

TEST_F(AuditFixture, PassesAwakeAndLocked)
{
    EXPECT_EQ(audit(), "");
    device.kernel().lockScreen();
    EXPECT_EQ(audit(), "");
}

TEST_F(AuditFixture, CatchesVolatileKeyInDram)
{
    device.kernel().lockScreen();
    ASSERT_EQ(audit(), "");
    plantInDram(device.sentry().keys().volatileKey());
    EXPECT_EQ(audit(), "key-residency — volatile key found in DRAM");
}

TEST_F(AuditFixture, CatchesDecryptedPageWhileLocked)
{
    device.kernel().lockScreen();
    Pte &pte = forceDecryptHeap();
    EXPECT_EQ(audit(), "page-states — 1 decrypted DRAM-resident page(s) "
                       "while locked");

    // The page table claims ciphertext again, but the cleartext is
    // still in DRAM: the marker check catches it.
    pte.encrypted = true;
    EXPECT_EQ(audit(), "plaintext-markers — 1 marker(s) in DRAM");
}

TEST_F(AuditFixture, CatchesPlaintextMarkerInDram)
{
    plantInDram(SECRET);
    EXPECT_EQ(audit(), ""); // awake: not applicable
    device.kernel().lockScreen();
    EXPECT_EQ(audit(), "plaintext-markers — 1 marker(s) in DRAM");
}

TEST_F(AuditFixture, CatchesFlushMaskRegression)
{
    device.kernel().lockScreen();
    ASSERT_TRUE(device.sentry().wayManager().lockWay().has_value());
    // Regression: someone reset the flush mask (e.g. an unpatched
    // driver path).
    device.soc().l2().setFlushWayMask(0);

    EXPECT_EQ(audit(), "flush-mask — locked ways not covered by the "
                       "flush mask: a kernel cache flush would leak "
                       "them");
}

TEST_F(AuditFixture, CatchesUnscrubbedFreedPages)
{
    device.kernel().lockScreen();
    leaveFreedPages();
    const std::size_t pending = device.kernel().freedPendingBytes();
    ASSERT_GT(pending, 0u);
    EXPECT_EQ(audit(), "freed-pages — " + std::to_string(pending) +
                           " unscrubbed freed bytes while locked");

    device.kernel().zeroFreedPages();
    EXPECT_EQ(audit(), "");
}

TEST_F(AuditFixture, SummaryIsReadable)
{
    // With several checks failing, the outcome is one line: the first
    // failing check in order, then its detail.
    device.kernel().lockScreen();
    forceDecryptHeap();
    leaveFreedPages();
    ASSERT_TRUE(device.sentry().wayManager().lockWay().has_value());
    device.soc().l2().setFlushWayMask(0);

    EXPECT_EQ(audit(), "page-states — 1 decrypted DRAM-resident page(s) "
                       "while locked");
}

TEST_F(AuditFixture, PassesAfterDeepLockScrub)
{
    device.kernel().setPin("1234");
    device.kernel().lockScreen();
    for (int i = 0; i < 5; ++i)
        device.kernel().unlockScreen("0000");
    ASSERT_TRUE(device.sentry().keysDestroyed());

    EXPECT_EQ(audit(), "");
}
