/**
 * @file
 * Workload-model tests: synthetic foreground apps, background apps,
 * and the kernel-compile cache sweep.
 */

#include <gtest/gtest.h>

#include "apps/app_profile.hh"
#include "apps/background_app.hh"
#include "apps/kernel_compile.hh"
#include "apps/synthetic_app.hh"
#include "common/bytes.hh"
#include "core/device.hh"

using namespace sentry;
using namespace sentry::apps;
using namespace sentry::core;

TEST(AppProfile, PaperAppsAreWellFormed)
{
    const auto &apps = AppProfile::paperApps();
    ASSERT_EQ(apps.size(), 4u);
    for (const auto &app : apps) {
        EXPECT_LE(app.resumeSetBytes + app.scriptTouchedBytes +
                      app.dmaRegionBytes,
                  app.residentBytes)
            << app.name;
        EXPECT_GT(app.scriptSeconds, 0.0);
    }
    EXPECT_EQ(AppProfile::byName("Maps").dmaRegionBytes, 15 * MiB);
    EXPECT_EXIT(AppProfile::byName("Angry Birds"),
                testing::ExitedWithCode(1), "unknown");
}

TEST(SyntheticApp, ResumeTouchesTheResumeSet)
{
    Device device(hw::PlatformConfig::nexus4(128 * MiB));
    SyntheticApp app(device.kernel(), AppProfile::byName("Contacts"));
    const auto secret = fromHex("c0a7ac75c0a7ac75");
    app.populate(secret);
    device.sentry().markSensitive(app.process());

    device.kernel().lockScreen();
    EXPECT_FALSE(device.soc().dram().cells().contains(secret));
    device.kernel().unlockScreen("0000");

    device.sentry().resetStats();
    const double seconds = app.resume();
    EXPECT_GT(seconds, 0.0);
    EXPECT_EQ(device.sentry().stats().bytesDecryptedOnDemand,
              app.profile().resumeSetBytes);
}

TEST(SyntheticApp, ScriptOverheadIsSmallFraction)
{
    // Figure 3's property: on-demand decryption adds only a few
    // percent to the scripted runs.
    Device device(hw::PlatformConfig::nexus4(128 * MiB));
    SyntheticApp app(device.kernel(), AppProfile::byName("Maps"));
    app.populate({});
    device.sentry().markSensitive(app.process());

    device.kernel().lockScreen();
    device.kernel().unlockScreen("0000");
    app.resume();

    const double seconds = app.runScript();
    const double overhead =
        (seconds - app.profile().scriptSeconds) /
        app.profile().scriptSeconds;
    EXPECT_GT(overhead, 0.0);
    EXPECT_LT(overhead, 0.10);
}

TEST(SyntheticApp, OversizedWorkingSetsRejected)
{
    Device device(hw::PlatformConfig::tegra3(64 * MiB));
    AppProfile bad{"bad", 4 * MiB, 3 * MiB, 2 * MiB, 1.0, 1 * MiB};
    EXPECT_EXIT(SyntheticApp(device.kernel(), bad),
                testing::ExitedWithCode(1), "exceed");
}

TEST(BackgroundProfiles, ShapesMatchTheApps)
{
    const auto alpine = BackgroundProfile::alpine();
    const auto vlock = BackgroundProfile::vlock();
    const auto xmms2 = BackgroundProfile::xmms2();

    // alpine's working set exceeds 2 locked ways (256 KiB)...
    EXPECT_GT(alpine.randomHotBytes, 2u * 128 * KiB);
    // ...vlock's hot set fits trivially...
    EXPECT_LT(vlock.randomHotBytes, 128 * KiB);
    // ...and xmms2 mixes a reuse ring (fits in 4 ways alongside its
    // streaming traffic, not in 2) with an always-faulting stream.
    EXPECT_GT(xmms2.ringBytes + xmms2.streamTouchesPerStep * PAGE_SIZE,
              128 * KiB);
    EXPECT_LT(xmms2.ringBytes, 4u * 128 * KiB);
    EXPECT_GT(xmms2.streamTouchesPerStep, 0u);
}

TEST(BackgroundApp, RunsCorrectlyWhileLockedAndMeasuresKernelTime)
{
    SentryOptions options;
    options.backgroundMode = true;
    options.pagerWays = 2;
    Device device(hw::PlatformConfig::tegra3(64 * MiB), options);

    BackgroundApp app(device.kernel(), BackgroundProfile::vlock());
    app.populate();
    device.sentry().markSensitive(app.process());
    device.sentry().markBackground(app.process());
    device.kernel().lockScreen();

    Rng rng(3);
    const BackgroundRunResult result = app.run(20, rng);
    EXPECT_GT(result.kernelSeconds, 0.0);
    EXPECT_GT(result.totalSeconds, result.kernelSeconds);
}

TEST(BackgroundApp, SentryOverheadOrderingAcrossApps)
{
    // alpine (big random set) must suffer more than vlock (tiny set)
    // at the same pool size — the Figure 6 vs Figure 7 contrast.
    auto measure = [](const BackgroundProfile &profile) {
        SentryOptions options;
        options.backgroundMode = true;
        options.pagerWays = 2;
        Device device(hw::PlatformConfig::tegra3(64 * MiB), options);
        BackgroundApp app(device.kernel(), profile);
        app.populate();
        device.sentry().markSensitive(app.process());
        device.sentry().markBackground(app.process());
        device.kernel().lockScreen();
        Rng rng(4);
        app.run(10, rng); // warm-up
        device.kernel().resetKernelCycles();
        const auto result = app.run(40, rng);
        const double baseline =
            40 * profile.baselineKernelSecondsPerStep;
        return result.kernelSeconds / baseline;
    };

    const double alpineRatio = measure(BackgroundProfile::alpine());
    const double vlockRatio = measure(BackgroundProfile::vlock());
    EXPECT_GT(alpineRatio, 1.5);
    EXPECT_LT(vlockRatio, 1.5);
    EXPECT_GT(alpineRatio, vlockRatio);
}

TEST(BackgroundApp, MoreLockedCacheReducesOverhead)
{
    auto measure = [](unsigned ways) {
        SentryOptions options;
        options.backgroundMode = true;
        options.pagerWays = ways;
        Device device(hw::PlatformConfig::tegra3(64 * MiB), options);
        BackgroundApp app(device.kernel(),
                          BackgroundProfile::alpine());
        app.populate();
        device.sentry().markSensitive(app.process());
        device.sentry().markBackground(app.process());
        device.kernel().lockScreen();
        Rng rng(5);
        app.run(10, rng);
        device.kernel().resetKernelCycles();
        return app.run(40, rng).kernelSeconds;
    };

    // 512 KiB of locked cache beats 256 KiB (Figures 6-8).
    EXPECT_LT(measure(4), measure(2));
}

TEST(KernelCompile, LockingWaysDegradesGracefully)
{
    hw::Soc soc(hw::PlatformConfig::tegra3(32 * MiB));
    KernelCompileWorkload workload(14.41, 120'000);
    Rng rng(6);

    const auto base = workload.run(soc, 0, rng);
    EXPECT_NEAR(base.minutes, 14.41, 0.01);

    const auto one = workload.run(soc, 1, rng);
    // "an increase of 7.2 seconds (less than 1%)".
    EXPECT_LT(one.minutes, base.minutes * 1.01);
    EXPECT_GE(one.minutes, base.minutes);

    const auto all = workload.run(soc, 8, rng);
    EXPECT_NEAR(all.l2MissRate, 1.0, 0.01); // everything uncached
    EXPECT_GT(all.minutes, base.minutes * 1.2);

    // Monotone non-decreasing in locked ways.
    double prev = base.minutes;
    for (unsigned ways = 2; ways <= 8; ways += 2) {
        const auto result = workload.run(soc, ways, rng);
        EXPECT_GE(result.minutes, prev * 0.995) << ways;
        prev = result.minutes;
    }
}
