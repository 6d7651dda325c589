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

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "fleet/fleet.hh"
#include "fleet/scenario.hh"
#include "host/kernels.hh"

using namespace sentry;

namespace
{

void
usage()
{
    std::printf(
        "usage: sentry_fleet [options]\n"
        "  --devices N          fleet size (default: scenario's, else 8)\n"
        "  --threads N          worker threads (default 1)\n"
        "  --shards N           work shards (default: scenario's, else\n"
        "                       derived from the fleet size)\n"
        "  --scenario NAME|FILE built-in preset or .scn file\n"
        "                       (default interactive-day)\n"
        "  --seed HEX|DEC       fleet seed (default 0x5e47ee1d)\n"
        "  --platform NAME      tegra3 or nexus4 (default: scenario's)\n"
        "  --defense NAME       sentry, amnesia, or memshield\n"
        "                       (default: scenario's, else sentry)\n"
        "  --dram SIZE          per-device DRAM, e.g. 16MiB\n"
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
        "                       active kernel tier per hot path, then "
        "exit\n");
}

[[noreturn]] void
usageError(const std::string &what)
{
    std::fprintf(stderr, "sentry_fleet: %s\n", what.c_str());
    usage();
    std::exit(2);
}

const char *
nextArg(int argc, char **argv, int &i, const char *flag)
{
    if (i + 1 >= argc)
        usageError(std::string(flag) + " needs a value");
    return argv[++i];
}

/** @return @p flag's value, a whole number of at most @p max. */
std::uint64_t
numberArg(int argc, char **argv, int &i, const char *flag,
          std::uint64_t max = std::numeric_limits<unsigned>::max())
{
    const char *value = nextArg(argc, argv, i, flag);
    try {
        return fleet::parseUnsigned(value, max);
    } catch (const std::exception &e) {
        usageError(std::string(flag) + ": " + e.what());
    }
}

/** Refuse @p flag's output @p path up front when it cannot be written. */
void
checkOutput(const char *flag, const std::string &path)
{
    try {
        fleet::checkWritable(path);
    } catch (const std::exception &e) {
        usageError(std::string(flag) + ": " + e.what());
    }
}

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
    bool platformOverride = false;
    bool defenseOverride = false;
    bool wantReplay = false;
    unsigned replayIndex = 0;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--devices") == 0) {
            devices = static_cast<unsigned>(numberArg(argc, argv, i, arg));
        } else if (std::strcmp(arg, "--threads") == 0) {
            options.threads =
                static_cast<unsigned>(numberArg(argc, argv, i, arg));
        } else if (std::strcmp(arg, "--shards") == 0) {
            options.shards =
                static_cast<unsigned>(numberArg(argc, argv, i, arg));
        } else if (std::strcmp(arg, "--scenario") == 0) {
            scenarioName = nextArg(argc, argv, i, arg);
        } else if (std::strcmp(arg, "--seed") == 0) {
            options.seed = numberArg(argc, argv, i, arg, UINT64_MAX);
        } else if (std::strcmp(arg, "--platform") == 0) {
            const std::string name = nextArg(argc, argv, i, arg);
            if (name == "tegra3")
                options.platform = fleet::FleetPlatform::Tegra3;
            else if (name == "nexus4")
                options.platform = fleet::FleetPlatform::Nexus4;
            else
                usageError("unknown platform '" + name + "'");
            platformOverride = true;
        } else if (std::strcmp(arg, "--defense") == 0) {
            const std::string name = nextArg(argc, argv, i, arg);
            const auto kind = core::parseDefenseKind(name);
            if (!kind.has_value())
                usageError("unknown defense backend '" + name + "'");
            options.defense = *kind;
            defenseOverride = true;
        } else if (std::strcmp(arg, "--dram") == 0) {
            try {
                options.dramBytes =
                    fleet::parseSize(nextArg(argc, argv, i, arg), 0);
                fleet::checkDramBytes(options.dramBytes);
            } catch (const std::exception &e) {
                usageError(std::string("--dram: ") + e.what());
            }
        } else if (std::strcmp(arg, "--json") == 0) {
            jsonPath = nextArg(argc, argv, i, arg);
        } else if (std::strcmp(arg, "--trace-out") == 0) {
            options.traceOutPath = nextArg(argc, argv, i, arg);
        } else if (std::strcmp(arg, "--no-json") == 0) {
            wantJson = false;
        } else if (std::strcmp(arg, "--snapshot") == 0) {
            options.spawnMode = fleet::SpawnMode::Snapshot;
        } else if (std::strcmp(arg, "--cold-boot") == 0) {
            options.spawnMode = fleet::SpawnMode::ColdBoot;
        } else if (std::strcmp(arg, "--no-results") == 0) {
            options.retainResults = false;
        } else if (std::strcmp(arg, "--replay-device") == 0) {
            wantReplay = true;
            replayIndex = static_cast<unsigned>(numberArg(argc, argv, i, arg));
        } else if (std::strcmp(arg, "--list") == 0) {
            for (const std::string &name : fleet::builtinScenarioNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (std::strcmp(arg, "--host-info") == 0) {
            std::printf("%s", host::hostInfoString().c_str());
            return 0;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            usage();
            return 0;
        } else {
            usageError(std::string("unknown option '") + arg + "'");
        }
    }

    if (wantJson && !wantReplay)
        checkOutput("--json", jsonPath);
    if (!options.traceOutPath.empty())
        checkOutput("--trace-out", options.traceOutPath);

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
    if (platformOverride)
        scenario.hasPlatform = false; // CLI wins over the directive
    if (defenseOverride)
        scenario.hasDefense = false; // CLI wins over the directive

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
