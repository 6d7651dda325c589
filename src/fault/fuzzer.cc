#include "fault/fuzzer.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "common/rng.hh"

namespace sentry::fault
{

namespace
{

using fleet::AttackKind;
using fleet::Op;
using fleet::Step;

/** Sizes the generator hands out (multiples keep paging interesting). */
constexpr std::size_t SIZE_QUANTUM = 16 * KiB;

/** Everything the generator needs to know about a spawned process. */
struct GenProc
{
    std::string name;
    bool sensitive = false;
    bool background = false;
};

Step
makeSleep(Rng &rng)
{
    Step step;
    step.op = Op::Sleep;
    step.seconds = 0.001 * static_cast<double>(1 + rng.below(50));
    return step;
}

/**
 * Draw an attack verb from the ATTACK_VERBS rows whose coldBootFamily
 * flag is @p cold_boot, uniformly, in table order: the live verbs
 * mid-scenario, the cold-boot family only as the final step.
 */
AttackKind
drawAttackKind(Rng &rng, bool cold_boot)
{
    constexpr auto COLD_BOOT_VERBS = static_cast<std::uint64_t>(
        std::ranges::count(fleet::ATTACK_VERBS, true,
                           &fleet::AttackVerb::coldBootFamily));
    std::uint64_t pick =
        rng.below(cold_boot ? COLD_BOOT_VERBS
                            : fleet::ATTACK_VERBS.size() - COLD_BOOT_VERBS);
    for (const fleet::AttackVerb &row : fleet::ATTACK_VERBS) {
        if (row.coldBootFamily == cold_boot && pick-- == 0)
            return row.kind;
    }
    panic("attack verb draw ran past the table");
}

FaultSpec
generateFault(Rng &rng, unsigned scenario_steps)
{
    FaultSpec spec;
    spec.kind = static_cast<FaultKind>(rng.below(FAULT_KIND_COUNT));
    switch (spec.kind) {
      case FaultKind::DramBitFlip:
      case FaultKind::IramBitFlip:
        spec.after = 1 + rng.below(5000);
        if (rng.chance(0.5))
            spec.every = 1 + rng.below(2000);
        spec.count = static_cast<unsigned>(1 + rng.below(8));
        break;
      case FaultKind::BusDuplicateWrite:
        spec.after = 1 + rng.below(500);
        if (rng.chance(0.5))
            spec.every = 1 + rng.below(500);
        spec.count = static_cast<unsigned>(1 + rng.below(3));
        break;
      case FaultKind::BusDelay:
        spec.after = 1 + rng.below(1000);
        if (rng.chance(0.5))
            spec.every = 1 + rng.below(1000);
        spec.cycles = 16 + rng.below(512);
        break;
      case FaultKind::LockdownGlitch:
        spec.after = 1 + rng.below(50);
        if (rng.chance(0.25))
            spec.every = 1 + rng.below(50);
        spec.count = static_cast<unsigned>(1 + rng.below(8));
        break;
      case FaultKind::KcryptdStall:
        spec.after = 1 + rng.below(64);
        if (rng.chance(0.5))
            spec.every = 1 + rng.below(64);
        spec.seconds = 0.0001 * static_cast<double>(1 + rng.below(50));
        break;
      case FaultKind::PowerGlitch:
        spec.after = 1 + rng.below(scenario_steps);
        spec.seconds = 0.001 * static_cast<double>(1 + rng.below(100));
        break;
      case FaultKind::DmaBurst:
        spec.after = 1 + rng.below(50);
        if (rng.chance(0.5))
            spec.every = 1 + rng.below(50);
        spec.bytes = 4096 * (1 + rng.below(16));
        break;
    }
    return spec;
}

/**
 * Structural validity of a shrunk step list: every touch targets an
 * earlier spawn, spawn names stay unique, and the list is non-empty.
 * Runner-level semantics (lock state, cold-boot ordering) are enforced
 * by the category check instead — a removal that breaks them produces a
 * "semantic" failure and is rejected.
 */
bool
stepsValid(const std::vector<Step> &steps)
{
    if (steps.empty())
        return false;
    std::set<std::string> spawned;
    for (const Step &step : steps) {
        if (step.op == Op::Spawn) {
            if (!spawned.insert(step.name).second)
                return false;
        } else if (step.op == Op::Touch) {
            if (!spawned.contains(step.name))
                return false;
        }
    }
    return true;
}

void
renumberSteps(std::vector<Step> &steps)
{
    for (std::size_t i = 0; i < steps.size(); ++i)
        steps[i].line = static_cast<unsigned>(i + 1);
}

bool
contains(const std::string &haystack, const char *needle)
{
    return haystack.find(needle) != std::string::npos;
}

/**
 * Apply one header line of a reproducer (`seed`, `spawn`, `expect`, a
 * comment or a blank) to @p file.
 * @return true when the line sets the seed
 * @throws std::runtime_error naming @p lineNo on a malformed line
 */
bool
parseHeaderLine(const std::string &line, unsigned lineNo, TrialFile &file)
{
    const std::vector<std::string> tokens = fleet::tokenize(line);
    if (tokens.empty())
        return false;
    const std::string &key = tokens[0];
    const std::string value = tokens.size() > 1 ? tokens[1] : "";
    const auto error = [lineNo](const std::string &what) {
        return std::runtime_error("line " + std::to_string(lineNo) + ": " +
                                  what);
    };
    if (key == "seed") {
        if (fleet::parseUnsigned(value, 0, UINT64_MAX, file.spec.seed) !=
            fleet::NumberParse::Ok)
            throw error("malformed seed '" + value + "'");
        return true;
    }
    if (key == "spawn") {
        if (value != "snapshot" && value != "cold-boot")
            throw error("spawn wants 'snapshot' or 'cold-boot', got '" +
                        value + "'");
        file.spec.spawn = value == "snapshot" ? fleet::SpawnMode::Snapshot
                                              : fleet::SpawnMode::ColdBoot;
    } else if (key == "expect") {
        if (value != "ok" && value != "fail")
            throw error("expect wants 'ok' or 'fail', got '" + value + "'");
        file.hasExpectation = true;
        file.expectFail = value == "fail";
    } else {
        throw error("unknown reproducer key '" + key + "'");
    }
    return false;
}

} // namespace

FuzzTrialSpec
generateTrial(const FuzzOptions &options, unsigned index)
{
    Rng rng(options.device.seed ^
            (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1)));

    FuzzTrialSpec spec;
    spec.seed = rng.next64();
    if (spec.seed == 0)
        spec.seed = 0x5e47f022ULL;

    fleet::Scenario &scenario = spec.scenario;
    scenario.name = "fuzz-" + std::to_string(index);
    scenario.defaultDevices = 1;

    std::vector<GenProc> procs;
    auto addStep = [&scenario](Step step) {
        step.line = static_cast<unsigned>(scenario.steps.size() + 1);
        scenario.steps.push_back(step);
    };

    // Spawns first (the device is awake at boot). The first process is
    // always sensitive so every trial has something worth protecting.
    const unsigned nprocs = 1 + static_cast<unsigned>(rng.below(2));
    for (unsigned p = 0; p < nprocs; ++p) {
        Step step;
        step.op = Op::Spawn;
        step.name = "app" + std::to_string(p);
        step.sensitive = p == 0 || rng.chance(0.5);
        step.background = step.sensitive && rng.chance(0.5);
        step.bytes = (1 + rng.below(8)) * SIZE_QUANTUM;
        if (rng.chance(0.25))
            step.dmaBytes = SIZE_QUANTUM;
        procs.push_back({step.name, step.sensitive, step.background});
        addStep(step);
    }

    bool locked = false;
    const unsigned bodySteps =
        options.steps > nprocs + 1 ? options.steps - nprocs - 1 : 1;
    for (unsigned i = 0; i < bodySteps; ++i) {
        const std::uint64_t pick = rng.below(100);
        Step step;
        if (!locked) {
            if (pick < 30) {
                step.op = Op::Lock;
                locked = true;
            } else if (pick < 50) {
                const GenProc &proc = procs[rng.below(procs.size())];
                step.op = Op::Touch;
                step.name = proc.name;
                step.bytes = (1 + rng.below(4)) * SIZE_QUANTUM;
            } else if (pick < 70) {
                step.op = Op::Filebench;
                step.bytes = (1 + rng.below(8)) * SIZE_QUANTUM;
                step.workload = static_cast<os::FilebenchWorkload>(
                    rng.below(os::FILEBENCH_WORKLOAD_COUNT));
                step.directIo = rng.chance(0.25);
            } else if (pick < 90) {
                step = makeSleep(rng);
            } else {
                step.op = Op::ZeroFreed;
            }
        } else {
            if (pick < 25) {
                step.op = Op::Unlock;
                step.pin = "0000"; // the device runner's default PIN
                locked = false;
            } else if (pick < 55) {
                step.op = Op::Attack;
                step.attack = drawAttackKind(rng, /*cold_boot=*/false);
            } else if (pick < 70) {
                step = makeSleep(rng);
            } else if (pick < 85) {
                // Only background-sensitive or unprotected processes
                // may be touched while locked.
                std::vector<const GenProc *> touchable;
                for (const GenProc &proc : procs) {
                    if (!proc.sensitive || proc.background)
                        touchable.push_back(&proc);
                }
                if (touchable.empty()) {
                    step = makeSleep(rng);
                } else {
                    const GenProc &proc =
                        *touchable[rng.below(touchable.size())];
                    step.op = Op::Touch;
                    step.name = proc.name;
                    step.bytes = (1 + rng.below(4)) * SIZE_QUANTUM;
                }
            } else {
                step.op = Op::ZeroFreed;
            }
        }
        addStep(step);
    }

    // Optional destructive finale: a cold-boot-family attack resets the
    // whole stack, so it can only be the last step.
    if (rng.chance(0.6)) {
        if (!locked) {
            Step lockStep;
            lockStep.op = Op::Lock;
            addStep(lockStep);
        }
        Step step;
        step.op = Op::Attack;
        step.attack = drawAttackKind(rng, /*cold_boot=*/true);
        step.frozen = rng.chance(0.3);
        addStep(step);
    }

    const unsigned nfaults = 1 + static_cast<unsigned>(rng.below(3));
    const auto totalSteps =
        static_cast<unsigned>(scenario.steps.size());
    for (unsigned f = 0; f < nfaults; ++f) {
        FaultSpec fault = generateFault(rng, totalSteps);
        fault.line = f + 1;
        spec.faults.faults.push_back(fault);
    }

    // Defense backend: drawn, unless a pin overwrites it below. The
    // draw is the stream's last, so every earlier decision of a given
    // campaign seed is the same whatever the pins.
    scenario.defense = static_cast<core::DefenseKind>(
        rng.below(core::DEFENSE_KIND_COUNT));
    fleet::applyPins(options.pins, scenario, spec.spawn);
    return spec;
}

TrialOutcome
runTrial(const FuzzTrialSpec &spec, const FuzzOptions &options)
{
    fleet::FleetOptions fleetOptions = options.device;
    fleetOptions.seed = spec.seed;
    fleetOptions.faultSchedule = &spec.faults;
    fleetOptions.spawnMode = spec.spawn;

    // Resolved as a fleet run resolves them, so a reproducer replays
    // its scenario's platform, audit, and defense directives.
    const fleet::DeviceResult result = fleet::runDevice(
        spec.scenario,
        fleet::resolveFleetOptions(spec.scenario, fleetOptions), 0);

    TrialOutcome outcome;
    outcome.ok = result.ok;
    outcome.error = result.error;
    outcome.stepsExecuted = result.stepsExecuted;
    outcome.simCycles = result.simCycles;
    std::ostringstream digest;
    digest << "cycles:" << result.simCycles
           << " steps:" << result.stepsExecuted
           << " ok:" << (result.ok ? 1 : 0)
           << " glitch:" << (result.powerGlitched ? 1 : 0)
           << " defense:" << result.defenseKind
           << " vuln_hits:" << result.defenseVulnerableHits;
    if (!result.faultDigest.empty())
        digest << " | " << result.faultDigest;
    if (!result.attackDigest.empty())
        digest << " | atk:" << result.attackDigest;
    if (!result.scheduleDigest.empty())
        digest << " | sched:" << result.scheduleDigest;
    outcome.digest = digest.str();
    outcome.traceSummary = result.trace.summary();
    return outcome;
}

std::string
classifyOutcome(const TrialOutcome &outcome)
{
    if (outcome.ok)
        return "ok";
    if (contains(outcome.error, "audit failed"))
        return "audit";
    if (contains(outcome.error, "recovered the secret") ||
        contains(outcome.error, "captured the secret") ||
        contains(outcome.error, "remanent memory"))
        return "leak";
    if (contains(outcome.error, "rowhammer"))
        return "hammer";
    if (contains(outcome.error, "iRAM byte"))
        return "iram";
    if (contains(outcome.error, "firmware image") ||
        contains(outcome.error, "code injection"))
        return "inject";
    return "semantic";
}

FuzzTrialSpec
shrinkTrial(const FuzzTrialSpec &spec, const FuzzOptions &options)
{
    const std::string category = classifyOutcome(runTrial(spec, options));
    if (category == "ok")
        return spec;

    FuzzTrialSpec best = spec;
    unsigned budget = options.shrinkBudget;
    bool progress = true;
    while (progress && budget > 0) {
        progress = false;

        // Pass 1: drop fault specs (a failure that survives with fewer
        // injected faults is a strictly better reproducer).
        for (std::size_t i = 0;
             i < best.faults.faults.size() && budget > 0;) {
            FuzzTrialSpec candidate = best;
            candidate.faults.faults.erase(candidate.faults.faults.begin() +
                                          static_cast<long>(i));
            --budget;
            if (classifyOutcome(runTrial(candidate, options)) == category) {
                best = std::move(candidate);
                progress = true;
            } else {
                ++i;
            }
        }

        // Pass 2: drop scenario steps, keeping references valid.
        for (std::size_t i = 0;
             i < best.scenario.steps.size() && budget > 0;) {
            if (best.scenario.steps.size() == 1)
                break;
            FuzzTrialSpec candidate = best;
            candidate.scenario.steps.erase(
                candidate.scenario.steps.begin() + static_cast<long>(i));
            if (!stepsValid(candidate.scenario.steps)) {
                ++i;
                continue;
            }
            renumberSteps(candidate.scenario.steps);
            --budget;
            if (classifyOutcome(runTrial(candidate, options)) == category) {
                best = std::move(candidate);
                progress = true;
            } else {
                ++i;
            }
        }
    }
    return best;
}

std::string
formatTrialFile(const FuzzTrialSpec &spec, const TrialOutcome *outcome)
{
    std::ostringstream out;
    out << "# sentry_fuzz reproducer (replay: sentry_fuzz --schedule "
           "<this file>)\n";
    char seedHex[32];
    std::snprintf(seedHex, sizeof(seedHex), "0x%llx",
                  static_cast<unsigned long long>(spec.seed));
    out << "seed " << seedHex << '\n';
    if (spec.spawn == fleet::SpawnMode::Snapshot)
        out << "spawn snapshot\n";
    if (outcome != nullptr) {
        out << "expect " << (outcome->ok ? "ok" : "fail") << '\n';
        if (!outcome->error.empty())
            out << "# error: " << outcome->error << '\n';
        // Comment (the parser skips it): the per-device CounterSink
        // totals, so a repro records what the machine did, not just
        // whether it failed.
        if (!outcome->traceSummary.empty())
            out << "# trace: " << outcome->traceSummary << '\n';
    }
    out << "[scenario]\n" << fleet::formatScenario(spec.scenario);
    out << "[faults]\n" << formatFaultSchedule(spec.faults);
    return out.str();
}

TrialFile
parseTrialFile(const std::string &text)
{
    TrialFile file;
    bool haveSeed = false;
    // Each section's parser sees every line of the file, those outside
    // its section blank, so its errors and steps carry the file's line
    // numbers.
    std::string scenarioText, faultText;
    std::string *section = nullptr; // header lines belong to neither

    std::istringstream stream(text);
    std::string raw;
    for (unsigned lineNo = 1; std::getline(stream, raw); ++lineNo) {
        if (!raw.empty() && raw.back() == '\r')
            raw.pop_back();
        if (raw == "[scenario]")
            section = &scenarioText;
        else if (raw == "[faults]")
            section = &faultText;
        else if (section != nullptr)
            *section += raw;
        else
            haveSeed |= parseHeaderLine(raw, lineNo, file);
        scenarioText += '\n';
        faultText += '\n';
    }
    if (!haveSeed)
        throw std::runtime_error("reproducer has no 'seed' line");
    file.spec.scenario = fleet::parseScenario(scenarioText, "repro");
    file.spec.faults = parseFaultSchedule(faultText);
    return file;
}

} // namespace sentry::fault
