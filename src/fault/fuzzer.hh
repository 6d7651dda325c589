/**
 * @file
 * The FaultSim invariant fuzzer.
 *
 * A fuzz *trial* is a (seed, scenario, fault schedule) triple. The
 * generator derives all three from one trial seed, so `sentry_fuzz
 * --seed S` is bit-replayable: the same seed produces the same
 * scenarios, the same schedules, the same simulated counters, and the
 * same verdicts. Trials run through the fleet engine's device runner
 * (one device, audits after every step), which asserts the shared
 * core::InvariantChecker invariant set.
 *
 * When a trial fails, shrinkTrial() greedily removes fault specs and
 * scenario steps while the failure *category* (audit violation, secret
 * leak, iRAM residue, injection, semantic) is preserved, yielding a
 * minimal reproducer that formatTrialFile() serializes for replay via
 * `sentry_fuzz --schedule FILE`.
 */

#ifndef SENTRY_FAULT_FUZZER_HH
#define SENTRY_FAULT_FUZZER_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "fault/fault.hh"
#include "fleet/fleet.hh"

namespace sentry::fault
{

/** Fuzzer knobs (all deterministic). */
struct FuzzOptions
{
    unsigned trials = 8;       //!< trials per campaign
    unsigned steps = 18;       //!< scenario steps per trial (approx.)
    bool shrink = true;        //!< shrink failures to minimal repros
    unsigned shrinkBudget = 96; //!< max extra runs spent shrinking
    /**
     * The one-device fleet each trial runs on. `seed` is the campaign
     * seed: each trial derives its own, and runTrial also sets the
     * trial's faults and spawn mode. A `traceOutPath` timeline is
     * overwritten by each trial, so a campaign leaves the last one.
     */
    fleet::FleetOptions device{.seed = 0x5e47f0220000001ULL};
    /** Pins written into every generated trial (fleet::applyPins); with
     * no pinned backend the generator draws one per trial. */
    fleet::Pins pins;
};

/** One generated (or loaded) trial. */
struct FuzzTrialSpec
{
    std::uint64_t seed = 0;   //!< fleet seed the trial runs under
    fleet::Scenario scenario; //!< workload + attack interleaving
    FaultSchedule faults;     //!< scheduled hardware faults
    /** Recorded spawn mode, so a reproducer replays the same path. */
    fleet::SpawnMode spawn = fleet::SpawnMode::ColdBoot;
};

/** Deterministic result of one trial run. */
struct TrialOutcome
{
    bool ok = true;
    std::string error;          //!< first violation (empty when ok)
    unsigned stepsExecuted = 0;
    Cycles simCycles = 0;       //!< simulated clock at end of run
    std::string digest;         //!< counters + injector fingerprint
    std::string traceSummary;   //!< CounterSink totals (one line)
};

/** A reproducer file: the trial plus its recorded verdict. */
struct TrialFile
{
    FuzzTrialSpec spec;
    bool hasExpectation = false;
    bool expectFail = false; //!< recorded verdict (valid with above)
};

/**
 * Derive trial @p index's spec from the campaign seed. The generator
 * only emits step sequences the device runner accepts (attacks only
 * against a locked device, no touching parked sensitive processes,
 * destructive attacks only as the final step), so every failure is an
 * invariant violation, not a grammar accident.
 */
FuzzTrialSpec generateTrial(const FuzzOptions &options, unsigned index);

/** Run @p spec on one device; never throws. */
TrialOutcome runTrial(const FuzzTrialSpec &spec,
                      const FuzzOptions &options);

/**
 * Failure category used by the shrinker ("audit", "leak", "iram",
 * "inject", "semantic"; "ok" for successes). Shrinking only accepts a
 * smaller trial when its category matches the original failure.
 */
std::string classifyOutcome(const TrialOutcome &outcome);

/**
 * Greedily minimize a failing @p spec: drop fault specs, then scenario
 * steps (keeping spawn/touch references valid), re-running after each
 * removal and keeping it only when the failure category is preserved.
 * Spends at most @p options.shrinkBudget extra runs.
 */
FuzzTrialSpec shrinkTrial(const FuzzTrialSpec &spec,
                          const FuzzOptions &options);

/** Serialize a trial (and optionally its verdict) to reproducer text. */
std::string formatTrialFile(const FuzzTrialSpec &spec,
                            const TrialOutcome *outcome = nullptr);

/**
 * Parse reproducer text (see formatTrialFile).
 * @throws std::runtime_error / ScenarioError / FaultParseError on
 *         malformed input
 */
TrialFile parseTrialFile(const std::string &text);

} // namespace sentry::fault

#endif // SENTRY_FAULT_FUZZER_HH
