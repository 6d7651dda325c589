/**
 * @file
 * Fleet engine coverage: end-to-end scenario runs stay green, semantic
 * misuse fails gracefully per-device with a line-numbered error (never
 * an exception out of the engine), option validation throws, and the
 * aggregation helpers behave.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "fleet/fleet.hh"
#include "fleet/scenario.hh"

using namespace sentry;
using namespace sentry::fleet;

namespace
{

class FleetEngine : public testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

    static FleetOptions
    smallOptions(unsigned devices = 2, unsigned threads = 1)
    {
        FleetOptions options;
        options.devices = devices;
        options.threads = threads;
        options.dramBytes = 8 * MiB;
        return options;
    }
};

} // namespace

TEST_F(FleetEngine, SmokeScenarioRunsGreen)
{
    const Scenario scenario = builtinScenario("fleet-smoke");
    const FleetReport report = runFleet(scenario, smallOptions(3));

    EXPECT_TRUE(report.allOk);
    EXPECT_EQ(report.devices, 3u);
    ASSERT_EQ(report.results.size(), 3u);
    for (const DeviceResult &result : report.results) {
        EXPECT_TRUE(result.ok) << result.error;
        EXPECT_EQ(result.error, "");
        EXPECT_EQ(result.stepsExecuted, scenario.steps.size());
        EXPECT_GT(result.auditsRun, 0u);
        EXPECT_EQ(result.auditFailures, 0u);
        EXPECT_EQ(result.attacksRun, 1u);
        EXPECT_EQ(result.sensitiveSecretsLeaked, 0u);
        EXPECT_EQ(result.unlock.count(), 2u);
        EXPECT_GT(result.bytesEncryptedOnLock, 0u);
    }

    const FleetMetric *failedDevices = report.find("sim_devices_failed");
    ASSERT_NE(failedDevices, nullptr);
    EXPECT_TRUE(failedDevices->isInt);
    EXPECT_EQ(failedDevices->u, 0u);
    const FleetMetric *total = report.find("sim_devices");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->u, 3u);

    const FleetMetric *p50 = report.find("sim_unlock_p50_us");
    ASSERT_NE(p50, nullptr);
    EXPECT_GT(p50->d, 0.0);

    EXPECT_EQ(report.find("sim_no_such_metric"), nullptr);

    const std::string summary = report.summary();
    EXPECT_NE(summary.find("fleet-smoke"), std::string::npos);
    EXPECT_NE(summary.find("invariant"), std::string::npos);
}

TEST_F(FleetEngine, AttackCampaignLeaksOnlyUnprotectedProcess)
{
    const FleetReport report =
        runFleet(builtinScenario("attack-campaign"), smallOptions(2));
    EXPECT_TRUE(report.allOk);
    for (const DeviceResult &result : report.results) {
        // Table 3 shape: the sensitive wallet survives all four
        // attacks, the unprotected process leaks to every one.
        EXPECT_EQ(result.attacksRun, 4u);
        EXPECT_GT(result.sensitiveSecretsProbed, 0u);
        EXPECT_EQ(result.sensitiveSecretsLeaked, 0u);
        EXPECT_EQ(result.nonSensitiveLeaks, 4u);
    }
}

TEST_F(FleetEngine, BackgroundScenarioPagesWhileLocked)
{
    const FleetReport report =
        runFleet(builtinScenario("background-mail"), smallOptions(2));
    EXPECT_TRUE(report.allOk);
    for (const DeviceResult &result : report.results)
        EXPECT_GT(result.faultsServiced, 0u);
}

TEST_F(FleetEngine, TouchingParkedSensitiveWhileLockedFailsGracefully)
{
    const Scenario scenario = parseScenario(
        "spawn mail sensitive\nlock\ntouch mail\n", "bad-touch");
    const FleetReport report = runFleet(scenario, smallOptions(2));

    EXPECT_FALSE(report.allOk);
    for (const DeviceResult &result : report.results) {
        EXPECT_FALSE(result.ok);
        EXPECT_NE(result.error.find("line 3"), std::string::npos)
            << result.error;
        EXPECT_NE(result.error.find("parked sensitive"),
                  std::string::npos)
            << result.error;
    }
    const FleetMetric *failedDevices = report.find("sim_devices_failed");
    ASSERT_NE(failedDevices, nullptr);
    EXPECT_EQ(failedDevices->u, 2u);
}

TEST_F(FleetEngine, AttackingAwakeDeviceFailsGracefully)
{
    const Scenario scenario =
        parseScenario("spawn mail sensitive\nattack dma\n", "bad-attack");
    const FleetReport report = runFleet(scenario, smallOptions(1));

    EXPECT_FALSE(report.allOk);
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_NE(report.results[0].error.find("line 2"), std::string::npos);
    EXPECT_NE(report.results[0].error.find("threat model"),
              std::string::npos);
}

TEST_F(FleetEngine, StepAfterColdBootFailsGracefully)
{
    const Scenario scenario = parseScenario(
        "spawn mail sensitive\nlock\nattack cold_boot\nunlock 0000\n",
        "post-cold-boot");
    const FleetReport report = runFleet(scenario, smallOptions(1));

    EXPECT_FALSE(report.allOk);
    EXPECT_NE(report.results[0].error.find("line 4"), std::string::npos);
    EXPECT_NE(report.results[0].error.find("cold-booted"),
              std::string::npos);
}

TEST_F(FleetEngine, BackgroundSpawnWithoutCacheLockingFailsGracefully)
{
    // nexus4 cannot lock cache ways, so Sentry runs without background
    // mode there: each device fails at the spawn, and the run reports.
    const Scenario scenario = parseScenario(
        "platform nexus4\nspawn mail sensitive background heap 64KiB\n"
        "lock\n",
        "background-nexus4");
    const FleetReport report = runFleet(scenario, smallOptions(4));

    EXPECT_FALSE(report.allOk);
    ASSERT_EQ(report.results.size(), 4u);
    for (const DeviceResult &result : report.results) {
        EXPECT_FALSE(result.ok);
        EXPECT_EQ(result.stepsExecuted, 0u);
        EXPECT_NE(result.error.find("line 2: background spawn of 'mail'"),
                  std::string::npos)
            << result.error;
    }
    const FleetMetric *failedDevices = report.find("sim_devices_failed");
    ASSERT_NE(failedDevices, nullptr);
    EXPECT_EQ(failedDevices->u, 4u);
}

TEST_F(FleetEngine, SpawnLargerThanFreeFramesFailsGracefully)
{
    // The kernel backs the kernel stack, heap and DMA region with
    // frames at spawn. A spawn they do not fit fails its device with
    // the step's line, under both spawn modes; an earlier spawn that
    // fits still runs.
    const struct
    {
        const char *text;
        const char *error;
        std::size_t stepsBefore;
    } cases[] = {
        {"spawn big sensitive heap 8MiB\ntouch big 4KiB\nlock\n",
         "line 1: spawn of 'big' needs 2049 frames (kernel stack, heap "
         "and DMA region) but only ",
         0},
        {"spawn a heap 1MiB\nspawn b heap 3MiB\nlock\n",
         "line 2: spawn of 'b' needs 769 frames", 1},
        {"spawn a heap 1MiB dma 2MiB\nlock\n",
         "line 1: spawn of 'a' needs 769 frames", 0},
    };
    for (const auto &c : cases) {
        for (const SpawnMode mode : {SpawnMode::ColdBoot,
                                     SpawnMode::Snapshot}) {
            const Scenario scenario = parseScenario(c.text, "oversized");
            FleetOptions options = smallOptions(2);
            options.dramBytes = 4 * MiB;
            options.spawnMode = mode;
            const FleetReport report = runFleet(scenario, options);
            EXPECT_FALSE(report.allOk) << c.text;
            ASSERT_EQ(report.results.size(), 2u);
            for (const DeviceResult &result : report.results) {
                EXPECT_FALSE(result.ok);
                EXPECT_EQ(result.stepsExecuted, c.stepsBefore) << c.text;
                EXPECT_EQ(result.error.rfind(c.error, 0), 0u)
                    << result.error;
            }
        }
    }
}

TEST_F(FleetEngine, InvalidOptionsThrow)
{
    const Scenario scenario = builtinScenario("fleet-smoke");

    FleetOptions zeroDevices = smallOptions(0);
    EXPECT_THROW(runFleet(scenario, zeroDevices), std::invalid_argument);

    FleetOptions tooMany = smallOptions(MAX_DEVICES + 1);
    EXPECT_THROW(runFleet(scenario, tooMany), std::invalid_argument);

    FleetOptions zeroThreads = smallOptions(1, 0);
    EXPECT_THROW(runFleet(scenario, zeroThreads), std::invalid_argument);

    FleetOptions tinyDram = smallOptions(1);
    tinyDram.dramBytes = 1 * MiB;
    EXPECT_THROW(runFleet(scenario, tinyDram), std::invalid_argument);

    FleetOptions partialPage = smallOptions(1);
    partialPage.dramBytes = 4 * MiB + 1;
    EXPECT_THROW(runFleet(scenario, partialPage), std::invalid_argument);
}

TEST_F(FleetEngine, ScenarioPlatformOverridesOptions)
{
    const Scenario scenario = parseScenario(
        "platform nexus4\nspawn mail sensitive\nlock\nunlock 0000\n",
        "nexus");
    FleetOptions options = smallOptions(1);
    options.platform = FleetPlatform::Tegra3;
    const FleetReport report = runFleet(scenario, options);
    EXPECT_TRUE(report.allOk) << report.summary();
}

TEST_F(FleetEngine, SummaryKeepsLongFailureLinesWhole)
{
    // Every device fails at the spawn of a process with a 240-character
    // name (no background mode on nexus4); each failure keeps its whole
    // line, and the verdict still starts a line of its own.
    const std::string name(240, 'p');
    const Scenario scenario = parseScenario(
        "platform nexus4\nspawn " + name +
            " sensitive background heap 64KiB\nlock\n",
        "long-name");
    const FleetReport report = runFleet(scenario, smallOptions(2));
    ASSERT_EQ(report.failures.size(), 2u);

    const std::string summary = report.summary();
    for (const DeviceResult &result : report.failures) {
        EXPECT_NE(result.error.find(name), std::string::npos);
        EXPECT_NE(summary.find("\n  device " + std::to_string(result.index) +
                               " FAILED: " + result.error + "\n"),
                  std::string::npos)
            << summary;
    }
    EXPECT_NE(summary.find("\n  invariants: VIOLATED (0/2 devices green)\n"),
              std::string::npos)
        << summary;
}

TEST_F(FleetEngine, PercentileNearestRank)
{
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
    // unsorted input: percentile sorts a copy
    std::vector<double> samples = {5.0, 1.0, 4.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(percentile(samples, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(samples, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(samples, 100.0), 5.0);
}

TEST_F(FleetEngine, DeviceSeedsAreDistinctAndStable)
{
    std::set<std::uint64_t> seeds;
    for (unsigned i = 0; i < 256; ++i) {
        const std::uint64_t seed = fleetDeviceSeed(0x5e47ee1dULL, i);
        EXPECT_NE(seed, 0u);
        EXPECT_EQ(seed, fleetDeviceSeed(0x5e47ee1dULL, i));
        seeds.insert(seed);
    }
    EXPECT_EQ(seeds.size(), 256u);
    EXPECT_NE(fleetDeviceSeed(1, 0), fleetDeviceSeed(2, 0));
}

TEST_F(FleetEngine, WritesJsonRecord)
{
    const FleetReport report =
        runFleet(builtinScenario("fleet-smoke"), smallOptions(1));
    const std::string path = testing::TempDir() + "/BENCH_fleet_test.json";
    ASSERT_TRUE(report.writeJson(path));

    std::ifstream file(path);
    ASSERT_TRUE(file.good());
    std::ostringstream text;
    text << file.rdbuf();
    const std::string json = text.str();
    EXPECT_NE(json.find("\"bench\": \"fleet\""), std::string::npos);
    EXPECT_NE(json.find("\"scenario\": \"fleet-smoke\""),
              std::string::npos);
    EXPECT_NE(json.find("\"sim_devices\""), std::string::npos);
    EXPECT_NE(json.find("\"sim_unlock_p50_us\""), std::string::npos);
    std::remove(path.c_str());

    EXPECT_FALSE(report.writeJson("/nonexistent/dir/out.json"));
}
