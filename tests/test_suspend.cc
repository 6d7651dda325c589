/**
 * @file
 * Secure-on-suspend tests (paper section 7): suspending to RAM runs
 * encrypt-on-lock first, waking resumes into the *locked* state, and
 * the memory stays protected across the whole suspend window — exactly
 * the "press a button and it resumes" scenario the paper's introduction
 * motivates.
 */

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "core/device.hh"

using namespace sentry;
using namespace sentry::core;
using namespace sentry::os;

namespace
{

const auto SECRET = fromHex("ab5e111500000000abcddcba00000000");

struct SuspendFixture : testing::Test
{
    SuspendFixture() : device(hw::PlatformConfig::nexus4(64 * MiB))
    {
        app = &device.kernel().createProcess("mail");
        const Vma &vma = device.kernel().addVma(*app, "heap",
                                                VmaType::Heap,
                                                8 * PAGE_SIZE);
        heap = vma.base;
        device.kernel().writeVirt(*app, heap + 64, SECRET.data(),
                                  SECRET.size());
        device.sentry().markSensitive(*app);
    }

    Device device;
    Process *app;
    VirtAddr heap;
};

} // namespace

TEST_F(SuspendFixture, SuspendEncryptsBeforeHalting)
{
    device.kernel().suspendToRam();
    EXPECT_EQ(device.kernel().powerState(), PowerState::Suspended);
    EXPECT_FALSE(device.soc().dram().cells().contains(SECRET));
    EXPECT_GT(device.sentry().stats().bytesEncryptedOnLock, 0u);
}

TEST_F(SuspendFixture, WakeIsNotUnlock)
{
    device.kernel().suspendToRam();
    // The thief presses the power button: the device wakes instantly...
    EXPECT_EQ(device.kernel().wakeUp(WakeReason::UserInteraction),
              PowerState::Locked);
    // ...but memory is still encrypted. This is the scenario where
    // PIN-lock alone fails and Sentry holds.
    EXPECT_FALSE(device.soc().dram().cells().contains(SECRET));
    EXPECT_EQ(device.kernel().wakeCount(), 1u);
}

TEST_F(SuspendFixture, UnlockFromSuspendRestoresData)
{
    device.kernel().suspendToRam(3600.0); // an hour in the pocket
    EXPECT_GE(device.kernel().suspendedSeconds(), 3600.0);

    ASSERT_TRUE(device.kernel().unlockScreen("0000"));
    EXPECT_EQ(device.kernel().powerState(), PowerState::Awake);

    std::uint8_t buf[16];
    device.kernel().readVirt(*app, heap + 64, buf, 16);
    EXPECT_EQ(toHex({buf, 16}), toHex(SECRET));
}

TEST_F(SuspendFixture, RepeatedWakeEventsWhileSuspendedStaySafe)
{
    device.kernel().suspendToRam();
    for (auto reason : {WakeReason::IncomingCall, WakeReason::TimerAlarm,
                        WakeReason::Notification}) {
        device.kernel().wakeUp(reason);
        EXPECT_FALSE(device.soc().dram().cells().contains(SECRET));
        device.kernel().suspendToRam(60.0);
    }
    EXPECT_EQ(device.kernel().wakeCount(), 3u);
    ASSERT_TRUE(device.kernel().unlockScreen("0000"));
    std::uint8_t buf[16];
    device.kernel().readVirt(*app, heap + 64, buf, 16);
    EXPECT_EQ(toHex({buf, 16}), toHex(SECRET));
}

TEST_F(SuspendFixture, WakeFromAwakeIsHarmless)
{
    EXPECT_EQ(device.kernel().wakeUp(WakeReason::Notification),
              PowerState::Awake);
}
