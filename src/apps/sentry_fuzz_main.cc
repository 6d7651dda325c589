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

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/command_line.hh"
#include "common/logging.hh"
#include "fault/fuzzer.hh"

using namespace sentry;

namespace
{

const char USAGE[] =
    "usage: sentry_fuzz [options]\n"
    "  --seed HEX|DEC   campaign seed (default 0x5e47f0220000001)\n"
    "  --trials N       trials to run (default 8)\n"
    "  --jobs N         campaign worker threads (default 1; output\n"
    "                   is identical for any job count)\n"
    "  --steps N        approx. scenario steps per trial (default 18)\n"
    "  --schedule FILE  replay a reproducer instead of fuzzing\n"
    "  --repro-dir DIR  where to write reproducers (default '.')\n"
    "  --no-shrink      keep failing trials unminimized\n"
    "  --platform NAME  tegra3 or nexus4 (default: the reproducer's,\n"
    "                   else tegra3)\n"
    "  --defense NAME   sentry, amnesia, or memshield (default: the\n"
    "                   reproducer's, else drawn per trial)\n"
    "  --dram SIZE      per-trial DRAM, 4MiB..1GiB (default 16MiB)\n"
    "  --trace-out PATH write the last trial's timeline as\n"
    "                   chrome://tracing JSON\n"
    "  --snapshot       fork each trial device from a warmed COW\n"
    "                   snapshot (fuzzes the fork path)\n"
    "  --cold-boot      boot each trial device from scratch (default:\n"
    "                   the reproducer's spawn line, else this)\n"
    "  --host-info      print detected host CPU features and the\n"
    "                   active kernel tier per hot path, then exit\n";

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

    fleet::applyPins(options.pins, file.spec.scenario, file.spec.spawn);
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

    apps::CommandLine cli("sentry_fuzz", USAGE, argc, argv);
    cli.parse(options.device, options.pins, [&](std::string_view flag) {
        if (flag == "--trials") {
            options.trials = cli.count();
        } else if (flag == "--jobs") {
            jobs = cli.count();
        } else if (flag == "--steps") {
            options.steps = cli.count();
        } else if (flag == "--schedule") {
            schedulePath = cli.value();
        } else if (flag == "--repro-dir") {
            reproDir = cli.value();
        } else if (flag == "--no-shrink") {
            options.shrink = false;
        } else {
            return false;
        }
        return true;
    });
    if (options.trials == 0 || options.steps == 0)
        cli.usageError("--trials and --steps must be positive");
    if (jobs == 0 || jobs > fleet::MAX_THREADS)
        cli.usageError("--jobs out of range (1.." +
                       std::to_string(fleet::MAX_THREADS) + ")");
    if (jobs > 1 && !options.device.traceOutPath.empty())
        cli.usageError("--trace-out needs --jobs 1 (a single trial's "
                       "timeline cannot interleave workers)");

    if (!schedulePath.empty())
        return replay(schedulePath, options);

    std::printf("campaign seed 0x%llx: %u trials, ~%u steps each\n",
                static_cast<unsigned long long>(options.device.seed),
                options.trials, options.steps);

    // Trials are independent (each builds its own device), so the
    // campaign fans out over the fleet work-stealing queue — one
    // "shard" per trial. Output is buffered per trial and printed in
    // trial order, so any job count emits identical bytes.
    std::vector<std::string> reports(options.trials);
    // Plain bytes, not vector<bool>: workers write distinct elements
    // concurrently, which the bit-packed specialization cannot take.
    std::vector<unsigned char> failed(options.trials, 0);
    const auto runTrialAt = [&](unsigned t, fleet::DevicePool &) {
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
        if (options.shrink) {
            repro = fault::shrinkTrial(spec, options);
            out += "  shrunk to " + trialSummary(repro) + "\n";
        }
        // Record the run of the reproducer as it parses back, so its
        // "# error:" line names the file lines a --schedule replay
        // reports. Every failing trial's header has the same lines, so
        // formatting with the campaign's outcome places the steps.
        const fault::TrialOutcome reproOutcome = fault::runTrial(
            fault::parseTrialFile(fault::formatTrialFile(repro, &outcome))
                .spec,
            options);
        char stem[64];
        std::snprintf(stem, sizeof stem, "/FUZZ_repro_%016llx_%u.fuzz",
                      static_cast<unsigned long long>(options.device.seed),
                      t);
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

    fleet::fanOut(options.trials, jobs, runTrialAt);

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
