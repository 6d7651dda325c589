/**
 * @file
 * sentry_fleet — run a fleet of simulated Sentry devices through a
 * scenario and report aggregate metrics.
 *
 *   $ sentry_fleet --devices 32 --scenario attack-campaign --threads 8
 *   $ sentry_fleet --scenario my_workload.scn --seed 42 --json out.json
 *   $ sentry_fleet --list
 *
 * Exit status: 0 when every device finished with all Sentry invariants
 * green; 1 on invariant violations; 2 on usage/parse errors (scenario
 * parse failures print the offending line number) and on an output
 * file (--json, --trace-out) that cannot be written, which is checked
 * before any device runs.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/command_line.hh"
#include "common/logging.hh"
#include "fleet/fleet.hh"
#include "fleet/scenario.hh"

using namespace sentry;

namespace
{

const char USAGE[] =
    "usage: sentry_fleet [options]\n"
    "  --devices N          fleet size (default: scenario's, else 8)\n"
    "  --threads N          worker threads (default 1)\n"
    "  --shards N           work shards (default: scenario's, else\n"
    "                       derived from the fleet size)\n"
    "  --scenario NAME|FILE built-in preset or .scn file\n"
    "                       (default interactive-day)\n"
    "  --seed HEX|DEC       fleet seed (default 0x5e47ee1d)\n"
    "  --platform NAME      tegra3 or nexus4 (default: the scenario's,\n"
    "                       else tegra3)\n"
    "  --defense NAME       sentry, amnesia, or memshield\n"
    "                       (default: the scenario's, else sentry)\n"
    "  --dram SIZE          per-device DRAM, 4MiB..1GiB (default 16MiB)\n"
    "  --json PATH          metrics record (default BENCH_fleet.json)\n"
    "  --no-json            skip the JSON record\n"
    "  --trace-out PATH     write device 0's timeline as\n"
    "                       chrome://tracing JSON\n"
    "  --snapshot           boot one template device and fork every\n"
    "                       fleet device from its COW snapshot\n"
    "  --cold-boot          boot every device from scratch (default)\n"
    "  --no-results         stream aggregation only: do not keep a\n"
    "                       DeviceResult per device (fleet memory\n"
    "                       stays O(shards) at any fleet size)\n"
    "  --replay-device N    re-run the single device index N exactly\n"
    "                       as the fleet run would and print its\n"
    "                       digest (see sim_shard_* determinism)\n"
    "  --list               list built-in scenarios and exit\n"
    "  --host-info          print detected host CPU features and the\n"
    "                       active kernel tier per hot path, then exit\n";

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    std::string scenarioName = "interactive-day";
    std::string jsonPath = "BENCH_fleet.json";
    bool wantJson = true;
    unsigned devices = 0; // 0 = take the scenario's default
    fleet::FleetOptions options;
    fleet::Pins pins;
    bool wantReplay = false;
    unsigned replayIndex = 0;

    apps::CommandLine cli("sentry_fleet", USAGE, argc, argv);
    cli.parse(options, pins, [&](std::string_view flag) {
        if (flag == "--devices") {
            devices = cli.count();
        } else if (flag == "--threads") {
            options.threads = cli.count();
        } else if (flag == "--shards") {
            options.shards = cli.count();
        } else if (flag == "--scenario") {
            scenarioName = cli.value();
        } else if (flag == "--json") {
            jsonPath = cli.value();
        } else if (flag == "--no-json") {
            wantJson = false;
        } else if (flag == "--no-results") {
            options.retainResults = false;
        } else if (flag == "--replay-device") {
            wantReplay = true;
            replayIndex = cli.count();
        } else if (flag == "--list") {
            for (const std::string &name : fleet::builtinScenarioNames())
                std::printf("%s\n", name.c_str());
            std::exit(0);
        } else {
            return false;
        }
        return true;
    });
    if (wantJson && !wantReplay)
        cli.checkOutput("--json", jsonPath);

    fleet::Scenario scenario;
    try {
        scenario = fleet::isBuiltinScenario(scenarioName)
                       ? fleet::builtinScenario(scenarioName)
                       : fleet::loadScenarioFile(scenarioName);
    } catch (const fleet::ScenarioError &e) {
        std::fprintf(stderr, "sentry_fleet: %s: %s\n",
                     scenarioName.c_str(), e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sentry_fleet: %s\n", e.what());
        return 2;
    }

    options.devices = devices != 0            ? devices
                      : scenario.defaultDevices != 0
                          ? scenario.defaultDevices
                          : 8;
    fleet::applyPins(pins, scenario, options.spawnMode);

    if (wantReplay) {
        try {
            const fleet::DeviceResult result =
                fleet::replayFleetDevice(scenario, options, replayIndex);
            std::printf("device %u seed 0x%llx: %s\n", result.index,
                        static_cast<unsigned long long>(result.seed),
                        result.ok ? "ok" : result.error.c_str());
            std::printf("  steps %llu, audits %llu, cycles %llu\n",
                        static_cast<unsigned long long>(
                            result.stepsExecuted),
                        static_cast<unsigned long long>(result.auditsRun),
                        static_cast<unsigned long long>(result.simCycles));
            std::printf("  unlocks %llu, locks %llu, filebench %llu\n",
                        static_cast<unsigned long long>(
                            result.unlock.count()),
                        static_cast<unsigned long long>(
                            result.lock.count()),
                        static_cast<unsigned long long>(
                            result.filebench.count()));
            std::printf("  digest %s\n",
                        fleet::deviceDigest(result).c_str());
            return result.ok ? 0 : 1;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "sentry_fleet: %s\n", e.what());
            return 2;
        }
    }

    fleet::FleetReport report;
    try {
        report = fleet::runFleet(scenario, options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sentry_fleet: %s\n", e.what());
        return 2;
    }

    std::printf("%s", report.summary().c_str());
    if (wantJson) {
        if (!report.writeJson(jsonPath)) {
            std::fprintf(stderr, "sentry_fleet: cannot write %s\n",
                         jsonPath.c_str());
            return 2;
        }
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return report.allOk ? 0 : 1;
}
