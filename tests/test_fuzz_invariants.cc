/**
 * @file
 * Randomised whole-system invariant tests ("failure injection by
 * chaos"): drive a protected device through long random sequences of
 * lock / unlock / suspend / wake / touch / write / background-churn
 * operations, and after every step assert the two properties Sentry
 * promises:
 *
 *   1. whenever the device is locked or suspended, no sensitive
 *      plaintext marker and no root-key byte is present in DRAM;
 *   2. application data is never corrupted: every page carries a
 *      checksum that must verify whenever the page is readable.
 *
 * Parameterised over seeds so each instance explores a different
 * trajectory.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/bytes.hh"
#include "common/rng.hh"
#include "core/device.hh"

using namespace sentry;
using namespace sentry::core;
using namespace sentry::os;

namespace
{

/** 8-byte marker present in every page of the sensitive app. */
const auto MARKER = fromHex("5e7711e5feedf00d");

class FuzzTest : public testing::TestWithParam<std::uint64_t>
{
  protected:
    static constexpr std::size_t APP_PAGES = 48;

    FuzzTest()
        : options_(makeOptions()),
          device_(hw::PlatformConfig::tegra3(64 * MiB), options_),
          rng_(GetParam())
    {
        device_.kernel().setPin("1111");
        app_ = &device_.kernel().createProcess("fuzzapp");
        heap_ = device_
                    .kernel()
                    .addVma(*app_, "heap", VmaType::Heap,
                            APP_PAGES * PAGE_SIZE)
                    .base;
        device_.sentry().markSensitive(*app_);
        device_.sentry().markBackground(*app_);

        // Page i holds MARKER + its own index + a payload byte.
        for (std::size_t i = 0; i < APP_PAGES; ++i)
            writePage(i, static_cast<std::uint8_t>(i * 3));
    }

    static SentryOptions
    makeOptions()
    {
        SentryOptions options;
        options.placement = AesPlacement::LockedL2;
        options.backgroundMode = true;
        options.pagerWays = 1; // tiny pool: maximal paging churn
        return options;
    }

    void
    writePage(std::size_t index, std::uint8_t payload)
    {
        std::vector<std::uint8_t> page(64, payload);
        std::copy(MARKER.begin(), MARKER.end(), page.begin());
        page[MARKER.size()] = static_cast<std::uint8_t>(index);
        device_.kernel().writeVirt(*app_, heap_ + index * PAGE_SIZE,
                                   page.data(), page.size());
        expected_[index] = payload;
    }

    void
    checkPage(std::size_t index)
    {
        std::vector<std::uint8_t> page(64);
        device_.kernel().readVirt(*app_, heap_ + index * PAGE_SIZE,
                                  page.data(), page.size());
        ASSERT_TRUE(std::equal(MARKER.begin(), MARKER.end(),
                               page.begin()))
            << "marker lost on page " << index;
        ASSERT_EQ(page[MARKER.size()], static_cast<std::uint8_t>(index));
        ASSERT_EQ(page[MARKER.size() + 1], expected_[index])
            << "payload corrupted on page " << index;
    }

    void
    assertLockedInvariant()
    {
        const PowerState state = device_.kernel().powerState();
        if (state != PowerState::Locked && state != PowerState::Suspended)
            return;
        device_.soc().l2().cleanAllMasked();
        const hw::CowBytes &dram = device_.soc().dram().cells();
        ASSERT_FALSE(dram.contains(MARKER))
            << "plaintext marker in DRAM while locked";
        const RootKey key = device_.sentry().keys().volatileKey();
        ASSERT_FALSE(dram.contains({key.data(), key.size()}))
            << "volatile key in DRAM";
    }

    SentryOptions options_;
    Device device_;
    Rng rng_;
    Process *app_;
    VirtAddr heap_;
    std::map<std::size_t, std::uint8_t> expected_;
};

} // namespace

TEST_P(FuzzTest, RandomLifecycleNeverLeaksOrCorrupts)
{
    for (int step = 0; step < 150; ++step) {
        const PowerState state = device_.kernel().powerState();
        const std::uint64_t action = rng_.below(10);

        if (action < 3) {
            // Touch a random page (works awake AND locked: the app is
            // a background app, so the pager serves it while locked).
            // A suspended CPU runs nothing.
            if (state != PowerState::Suspended)
                checkPage(rng_.below(APP_PAGES));
        } else if (action < 5) {
            if (state != PowerState::Suspended) {
                writePage(rng_.below(APP_PAGES),
                          static_cast<std::uint8_t>(rng_.below(256)));
            }
        } else if (action < 7) {
            if (state == PowerState::Awake) {
                rng_.chance(0.5) ? device_.kernel().lockScreen()
                                 : device_.kernel().suspendToRam(
                                       rng_.uniform() * 100.0);
            }
        } else if (action < 9) {
            if (state == PowerState::Suspended) {
                device_.kernel().wakeUp(WakeReason::Notification);
            } else if (state == PowerState::Locked) {
                ASSERT_TRUE(device_.kernel().unlockScreen("1111"));
            }
        } else {
            // Ambient cache pressure from the rest of the system.
            device_.soc().l2().flushAllMasked();
        }

        assertLockedInvariant();
    }

    // Final sweep: wake + unlock, then verify every page end-to-end.
    device_.kernel().wakeUp(WakeReason::UserInteraction);
    device_.kernel().unlockScreen("1111");
    for (std::size_t i = 0; i < APP_PAGES; ++i)
        checkPage(i);

    // The run must actually have exercised the machinery.
    EXPECT_GT(device_.sentry().stats().faultsServiced, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                         13ull, 21ull, 34ull),
                         [](const auto &info) {
                             return "seed" + std::to_string(info.param);
                         });
