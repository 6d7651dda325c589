/**
 * @file
 * sentry_fuzz — FaultSim invariant fuzzer.
 *
 * Campaign mode generates random (scenario, fault schedule) trials from
 * a seed, runs each on one simulated device with the full security
 * audit after every step, and shrinks any failure to a minimal
 * reproducer written to disk. Generated scenarios draw on the whole
 * attack verb set, including the adversary-v2 kinds (prime_probe,
 * evict_reload, rowhammer, tz_side_channel); their AttackOutcome
 * digests ride in each trial digest (the "atk:" segment), so a replay
 * must reproduce the attack byte for byte, not just the verdict:
 *
 *   $ sentry_fuzz --seed 0xdecaf --trials 16
 *
 * Replay mode re-runs a reproducer file and reports whether the
 * recorded verdict reproduces:
 *
 *   $ sentry_fuzz --schedule FUZZ_repro_3.fuzz
 *
 * All output is deterministic (no timestamps, no host randomness), so
 * two runs with the same arguments are byte-identical.
 *
 * Exit status, campaign mode: 0 when every trial upheld the invariants,
 * 1 when any failed. Replay mode: 0 when the recorded verdict
 * reproduced (or the file had none and the trial passed), 1 otherwise.
 * 2 on usage/parse errors, including a --trace-out file that cannot be
 * written (checked before any trial runs).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "fault/fuzzer.hh"
#include "fleet/scenario.hh"
#include "fleet/shard.hh"
#include "host/kernels.hh"

using namespace sentry;

namespace
{

void
usage()
{
    std::printf(
        "usage: sentry_fuzz [options]\n"
        "  --seed HEX|DEC   campaign seed (default 0x5e47f0220000001)\n"
        "  --trials N       trials to run (default 8)\n"
        "  --jobs N         campaign worker threads (default 1; output\n"
        "                   is identical for any job count)\n"
        "  --steps N        approx. scenario steps per trial (default 18)\n"
        "  --schedule FILE  replay a reproducer instead of fuzzing\n"
        "  --repro-dir DIR  where to write reproducers (default '.')\n"
        "  --no-shrink      keep failing trials unminimized\n"
        "  --platform NAME  tegra3 or nexus4 (default tegra3)\n"
        "  --defense NAME   pin every trial to one backend (sentry,\n"
        "                   amnesia, or memshield; default: draw per\n"
        "                   trial)\n"
        "  --dram SIZE      per-trial DRAM, e.g. 16MiB\n"
        "  --trace-out PATH write the last trial's timeline as\n"
        "                   chrome://tracing JSON\n"
        "  --snapshot       fork each trial device from a warmed COW\n"
        "                   snapshot (fuzzes the fork path)\n"
        "  --cold-boot      boot each trial device from scratch "
        "(default)\n"
        "  --host-info      print detected host CPU features and the\n"
        "                   active kernel tier per hot path, then exit\n");
}

[[noreturn]] void
usageError(const std::string &what)
{
    std::fprintf(stderr, "sentry_fuzz: %s\n", what.c_str());
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

std::string
trialSummary(const fault::FuzzTrialSpec &spec)
{
    std::ostringstream out;
    out << spec.scenario.steps.size() << " steps, "
        << spec.faults.faults.size() << " faults";
    return out.str();
}

int
replay(const std::string &path, const fault::FuzzOptions &options)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "sentry_fuzz: cannot read %s\n",
                     path.c_str());
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();

    fault::TrialFile file;
    try {
        file = fault::parseTrialFile(text.str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sentry_fuzz: %s: %s\n", path.c_str(),
                     e.what());
        return 2;
    }

    const fault::TrialOutcome outcome =
        fault::runTrial(file.spec, options);
    std::printf("replay %s: seed 0x%llx (%s)\n", path.c_str(),
                static_cast<unsigned long long>(file.spec.seed),
                trialSummary(file.spec).c_str());
    std::printf("  verdict %s  [%s]\n", outcome.ok ? "OK" : "FAIL",
                outcome.digest.c_str());
    if (!outcome.ok)
        std::printf("  error: %s\n", outcome.error.c_str());

    if (!file.hasExpectation)
        return outcome.ok ? 0 : 1;
    const bool reproduced = file.expectFail != outcome.ok;
    std::printf("  recorded verdict %s: %s\n",
                file.expectFail ? "FAIL" : "OK",
                reproduced ? "reproduced" : "DIVERGED");
    return reproduced ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    fault::FuzzOptions options;
    std::string schedulePath;
    std::string reproDir = ".";
    unsigned jobs = 1;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--seed") == 0) {
            options.seed = numberArg(argc, argv, i, arg, UINT64_MAX);
        } else if (std::strcmp(arg, "--trials") == 0) {
            options.trials =
                static_cast<unsigned>(numberArg(argc, argv, i, arg));
        } else if (std::strcmp(arg, "--jobs") == 0) {
            jobs = static_cast<unsigned>(numberArg(argc, argv, i, arg));
        } else if (std::strcmp(arg, "--steps") == 0) {
            options.steps =
                static_cast<unsigned>(numberArg(argc, argv, i, arg));
        } else if (std::strcmp(arg, "--schedule") == 0) {
            schedulePath = nextArg(argc, argv, i, arg);
        } else if (std::strcmp(arg, "--repro-dir") == 0) {
            reproDir = nextArg(argc, argv, i, arg);
        } else if (std::strcmp(arg, "--no-shrink") == 0) {
            options.shrink = false;
        } else if (std::strcmp(arg, "--snapshot") == 0) {
            options.spawnSnapshot = true;
        } else if (std::strcmp(arg, "--cold-boot") == 0) {
            options.spawnSnapshot = false;
        } else if (std::strcmp(arg, "--trace-out") == 0) {
            options.traceOutPath = nextArg(argc, argv, i, arg);
        } else if (std::strcmp(arg, "--platform") == 0) {
            const std::string name = nextArg(argc, argv, i, arg);
            if (name == "tegra3")
                options.platform = fleet::FleetPlatform::Tegra3;
            else if (name == "nexus4")
                options.platform = fleet::FleetPlatform::Nexus4;
            else
                usageError("unknown platform '" + name + "'");
        } else if (std::strcmp(arg, "--defense") == 0) {
            const std::string name = nextArg(argc, argv, i, arg);
            const auto kind = core::parseDefenseKind(name);
            if (!kind.has_value())
                usageError("unknown defense backend '" + name + "'");
            options.defense = *kind;
        } else if (std::strcmp(arg, "--dram") == 0) {
            try {
                options.dramBytes =
                    fleet::parseSize(nextArg(argc, argv, i, arg), 0);
                fleet::checkDramBytes(options.dramBytes);
            } catch (const std::exception &e) {
                usageError(std::string("--dram: ") + e.what());
            }
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
    if (options.trials == 0 || options.steps == 0)
        usageError("--trials and --steps must be positive");
    if (jobs == 0 || jobs > fleet::MAX_THREADS)
        usageError("--jobs out of range (1.." +
                   std::to_string(fleet::MAX_THREADS) + ")");
    if (jobs > 1 && !options.traceOutPath.empty())
        usageError("--trace-out needs --jobs 1 (a single trial's "
                   "timeline cannot interleave workers)");
    if (!options.traceOutPath.empty())
        checkOutput("--trace-out", options.traceOutPath);

    if (!schedulePath.empty())
        return replay(schedulePath, options);

    std::printf("campaign seed 0x%llx: %u trials, ~%u steps each\n",
                static_cast<unsigned long long>(options.seed),
                options.trials, options.steps);

    // Trials are independent (each builds its own device), so the
    // campaign fans out over the fleet work-stealing queue — one
    // "shard" per trial. Output is buffered per trial and printed in
    // trial order, so any job count emits identical bytes.
    std::vector<std::string> reports(options.trials);
    // Plain bytes, not vector<bool>: workers write distinct elements
    // concurrently, which the bit-packed specialization cannot take.
    std::vector<unsigned char> failed(options.trials, 0);
    const auto runTrialAt = [&](unsigned t) {
        std::string &out = reports[t];
        char head[64];
        const fault::FuzzTrialSpec spec =
            fault::generateTrial(options, t);
        const fault::TrialOutcome outcome =
            fault::runTrial(spec, options);
        std::snprintf(head, sizeof head, "trial %u seed 0x%llx (", t,
                      static_cast<unsigned long long>(spec.seed));
        out += head;
        out += trialSummary(spec);
        out += "): ";
        out += outcome.ok ? "OK"
                          : "FAIL/" + fault::classifyOutcome(outcome);
        out += "  [";
        out += outcome.digest;
        out += "]\n";
        if (outcome.ok)
            return;
        failed[t] = 1;
        out += "  error: " + outcome.error + "\n";

        fault::FuzzTrialSpec repro = spec;
        fault::TrialOutcome reproOutcome = outcome;
        if (options.shrink) {
            repro = fault::shrinkTrial(spec, options);
            reproOutcome = fault::runTrial(repro, options);
            out += "  shrunk to " + trialSummary(repro) + "\n";
        }
        char stem[64];
        std::snprintf(stem, sizeof stem, "/FUZZ_repro_%016llx_%u.fuzz",
                      static_cast<unsigned long long>(options.seed), t);
        const std::string name = reproDir + stem;
        std::ofstream file(name, std::ios::binary | std::ios::trunc);
        if (file) {
            file << fault::formatTrialFile(repro, &reproOutcome);
            out += "  wrote " + name + "\n";
        } else {
            std::fprintf(stderr, "sentry_fuzz: cannot write %s\n",
                         name.c_str());
        }
    };

    const unsigned workers = std::min(jobs, options.trials);
    if (workers <= 1) {
        for (unsigned t = 0; t < options.trials; ++t)
            runTrialAt(t);
    } else {
        fleet::WorkQueue queue(options.trials, workers);
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back([&, w] {
                unsigned t = 0;
                while (queue.next(w, t))
                    runTrialAt(t);
            });
        }
        for (std::thread &thread : pool)
            thread.join();
    }

    unsigned failures = 0;
    for (unsigned t = 0; t < options.trials; ++t) {
        std::fputs(reports[t].c_str(), stdout);
        if (failed[t])
            ++failures;
    }
    std::printf("%u/%u trials upheld the invariant set\n",
                options.trials - failures, options.trials);
    return failures == 0 ? 0 : 1;
}
