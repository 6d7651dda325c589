/**
 * @file
 * Fuzzer-core tests: trial generation and execution are bit-replayable
 * from the campaign seed, reproducer files round-trip through
 * format/parse, a replay honours the reproducer's platform directive
 * unless a pin (a command-line flag) beats it, a pinned campaign
 * records its pins in every trial, outcome classification matches the
 * shrinker's categories, and the pinned lockdown-glitch reproducer
 * still fails (and still shrinks) the way EXPERIMENTS.md records.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/fuzzer.hh"

using namespace sentry;
using namespace sentry::fault;

namespace
{

FuzzOptions
quickOptions()
{
    FuzzOptions options;
    options.device.seed = 0xfeedface;
    options.steps = 10;
    options.device.dramBytes = 16 * MiB;
    return options;
}

/**
 * The known-failing reproducer (see EXPERIMENTS.md): a one-shot PL310
 * lockdown glitch unlocks Sentry's ways, and the eviction pressure from
 * a large non-sensitive heap then writes plaintext pager frames back to
 * DRAM, tripping the plaintext-markers audit.
 */
FuzzTrialSpec
lockdownGlitchRepro()
{
    FuzzTrialSpec spec;
    spec.seed = 0x1234;
    spec.scenario = fleet::parseScenario(
        "spawn mail sensitive background heap 65536\n"
        "spawn noise heap 2097152\n"
        "lock\n"
        "touch mail 65536\n",
        "repro");
    spec.faults =
        parseFaultSchedule("fault lockdown_glitch after 1 count 8\n");
    return spec;
}

} // namespace

TEST(Fuzzer, GenerateTrialIsDeterministic)
{
    const FuzzOptions options = quickOptions();
    for (unsigned index = 0; index < 4; ++index) {
        const FuzzTrialSpec a = generateTrial(options, index);
        const FuzzTrialSpec b = generateTrial(options, index);
        EXPECT_EQ(formatTrialFile(a), formatTrialFile(b)) << index;
        EXPECT_FALSE(a.scenario.steps.empty()) << index;
    }
    // Different indexes explore different trials.
    EXPECT_NE(formatTrialFile(generateTrial(options, 0)),
              formatTrialFile(generateTrial(options, 1)));
}

TEST(Fuzzer, GeneratedAttackVerbsArePinned)
{
    // Each campaign seed must keep drawing the same verbs (live ones
    // mid-trial, the cold-boot family only as the finale, `frozen` only
    // there), so campaigns and their reproducers replay byte for byte.
    // Between them the pins cover all ten verbs and each cold-boot verb
    // with and without `frozen`.
    const struct
    {
        std::uint64_t seed;
        unsigned steps;
        unsigned index;
        const char *attacks;
    } pins[] = {
        {1, 30, 3,
         "evict_reload, bus_monitor, bus_monitor, bus_monitor, rowhammer, "
         "tz_side_channel, dma, code_injection"},
        {1, 30, 4,
         "code_injection, dma, code_injection, prime_probe, prime_probe, "
         "evict_reload, 2s_reset frozen"},
        {2, 30, 2,
         "bus_monitor, prime_probe, bus_monitor, tz_side_channel, "
         "evict_reload, cold_boot frozen"},
        {2, 30, 4, "evict_reload, tz_side_channel, rowhammer, os_reboot"},
        {0xfeedface, 30, 1,
         "rowhammer, bus_monitor, prime_probe, tz_side_channel, cold_boot"},
        {0xfeedface, 30, 5,
         "dma, code_injection, code_injection, code_injection, "
         "tz_side_channel, 2s_reset"},
        {0xdecaf, 10, 5, "bus_monitor, code_injection, os_reboot frozen"},
    };
    for (const auto &pin : pins) {
        FuzzOptions options;
        options.device.seed = pin.seed;
        options.steps = pin.steps;
        const FuzzTrialSpec spec = generateTrial(options, pin.index);
        std::string attacks;
        for (const fleet::Step &step : spec.scenario.steps) {
            if (step.op != fleet::Op::Attack)
                continue;
            if (!attacks.empty())
                attacks += ", ";
            attacks += fleet::attackKindName(step.attack);
            if (step.frozen)
                attacks += " frozen";
        }
        EXPECT_EQ(attacks, pin.attacks)
            << "seed " << pin.seed << " trial " << pin.index;
    }
}

TEST(Fuzzer, RunTrialIsBitReplayable)
{
    const FuzzOptions options = quickOptions();
    const FuzzTrialSpec spec = generateTrial(options, 0);

    const TrialOutcome first = runTrial(spec, options);
    const TrialOutcome second = runTrial(spec, options);
    EXPECT_EQ(first.ok, second.ok);
    EXPECT_EQ(first.error, second.error);
    EXPECT_EQ(first.stepsExecuted, second.stepsExecuted);
    EXPECT_EQ(first.simCycles, second.simCycles);
    EXPECT_EQ(first.digest, second.digest);
    EXPECT_FALSE(first.digest.empty());
    EXPECT_GT(first.stepsExecuted, 0u);
}

TEST(Fuzzer, ParallelJobsAreByteIdenticalPerBackend)
{
    // The `--jobs N` campaign mode stripes trials across worker
    // threads; every (spec, outcome) pair must be byte-identical to
    // the sequential run, for every pinned defense backend — a
    // cross-thread dependency anywhere in a backend would show up as
    // digest drift here.
    for (const core::DefenseKind kind :
         {core::DefenseKind::Sentry, core::DefenseKind::Amnesia,
          core::DefenseKind::MemShield}) {
        SCOPED_TRACE(core::defenseKindName(kind));
        FuzzOptions options = quickOptions();
        options.device.seed = 0xd1ff10b5ULL;
        options.pins.defense = kind;
        constexpr unsigned TRIALS = 6;

        std::vector<std::string> sequential(TRIALS);
        for (unsigned i = 0; i < TRIALS; ++i) {
            const FuzzTrialSpec spec = generateTrial(options, i);
            const TrialOutcome outcome = runTrial(spec, options);
            sequential[i] = formatTrialFile(spec, &outcome);
        }

        constexpr unsigned JOBS = 3;
        std::vector<std::string> striped(TRIALS);
        std::vector<std::thread> pool;
        for (unsigned job = 0; job < JOBS; ++job) {
            pool.emplace_back([&, job] {
                for (unsigned i = job; i < TRIALS; i += JOBS) {
                    const FuzzTrialSpec spec =
                        generateTrial(options, i);
                    const TrialOutcome outcome =
                        runTrial(spec, options);
                    striped[i] = formatTrialFile(spec, &outcome);
                }
            });
        }
        for (std::thread &thread : pool)
            thread.join();

        for (unsigned i = 0; i < TRIALS; ++i)
            EXPECT_EQ(striped[i], sequential[i]) << "trial " << i;
    }
}

TEST(Fuzzer, PinnedBackendCampaignKeepsItsBackend)
{
    // `--defense X` pins every generated trial to one backend; the
    // scenario text of each trial must carry the directive so saved
    // reproducers replay under the same design.
    FuzzOptions options = quickOptions();
    options.pins.defense = core::DefenseKind::MemShield;
    for (unsigned i = 0; i < 4; ++i) {
        const FuzzTrialSpec spec = generateTrial(options, i);
        EXPECT_EQ(spec.scenario.defense, core::DefenseKind::MemShield)
            << i;
    }
}

TEST(Fuzzer, PinnedPlatformCampaignRecordsItsPlatform)
{
    // `--platform X` pins every generated trial the way `--defense`
    // does: the scenario carries the directive, so a saved reproducer
    // replays on the same platform. Without the pin a trial names no
    // platform, and the pin changes nothing else in the trial.
    FuzzOptions pinned = quickOptions();
    pinned.pins.platform = fleet::FleetPlatform::Nexus4;
    for (unsigned i = 0; i < 4; ++i) {
        const std::string text = formatTrialFile(generateTrial(pinned, i));
        const std::string plain =
            formatTrialFile(generateTrial(quickOptions(), i));
        EXPECT_NE(text.find("\nplatform nexus4\n"), std::string::npos)
            << text;
        EXPECT_EQ(plain.find("platform"), std::string::npos) << plain;
        std::string unpinned = text;
        unpinned.erase(unpinned.find("platform nexus4\n"),
                       std::string("platform nexus4\n").size());
        EXPECT_EQ(unpinned, plain) << i;
    }
}

TEST(Fuzzer, TrialFileRoundTripsThroughFormatAndParse)
{
    const FuzzTrialSpec spec = lockdownGlitchRepro();
    const std::string text = formatTrialFile(spec);

    const TrialFile file = parseTrialFile(text);
    EXPECT_EQ(file.spec.seed, spec.seed);
    EXPECT_FALSE(file.hasExpectation);
    EXPECT_EQ(formatTrialFile(file.spec), text);

    // With a recorded verdict the expectation round-trips too.
    TrialOutcome outcome;
    outcome.ok = false;
    outcome.error = "audit failed after step: plaintext-markers";
    const TrialFile verdictFile =
        parseTrialFile(formatTrialFile(spec, &outcome));
    EXPECT_TRUE(verdictFile.hasExpectation);
    EXPECT_TRUE(verdictFile.expectFail);

    TrialOutcome okOutcome;
    const TrialFile okFile =
        parseTrialFile(formatTrialFile(spec, &okOutcome));
    EXPECT_TRUE(okFile.hasExpectation);
    EXPECT_FALSE(okFile.expectFail);
}

TEST(Fuzzer, ParseTrialFileRejectsMalformedInput)
{
    // The seed line is mandatory.
    EXPECT_THROW(parseTrialFile("[scenario]\nlock\n"),
                 std::runtime_error);
    // Seeds must be numbers: a digit first (no sign), within 64 bits.
    EXPECT_THROW(parseTrialFile("seed banana\n"), std::runtime_error);
    for (const std::string seed : {"-1", "+42", "99999999999999999999999"}) {
        try {
            parseTrialFile("seed " + seed + "\n[scenario]\nlock\n");
            ADD_FAILURE() << "seed " << seed << " accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      "line 1: malformed seed '" + seed + "'");
        }
    }
    // The verdict must be ok or fail.
    EXPECT_THROW(parseTrialFile("seed 0x1\nexpect maybe\n"),
                 std::runtime_error);
    // Unknown header keys are errors, not silently ignored.
    EXPECT_THROW(parseTrialFile("seed 0x1\nbogus 3\n"),
                 std::runtime_error);
    // Malformed embedded sections propagate their own parsers' errors.
    EXPECT_THROW(parseTrialFile("seed 0x1\n[scenario]\nwarp 9\n"),
                 fleet::ScenarioError);
    EXPECT_THROW(parseTrialFile("seed 0x1\n[scenario]\nlock\n"
                                "[faults]\nfault bogus after 1\n"),
                 FaultParseError);

    // CRLF and comments are fine.
    const TrialFile file = parseTrialFile("# repro\r\n"
                                          "seed 0x2a\r\n"
                                          "[scenario]\r\n"
                                          "lock\r\n");
    EXPECT_EQ(file.spec.seed, 0x2au);
    ASSERT_EQ(file.spec.scenario.steps.size(), 1u);
}

TEST(Fuzzer, ReproducerErrorsNameTheFileLine)
{
    // Comments, blank lines and the header come before each section's
    // lines, yet every error names the line of the file it is on. The
    // head is 8 lines: the spawn is line 6 and the lock line 8.
    const std::string head = "# reproducer\n"
                             "seed 0x2a\n"
                             "\n"
                             "[scenario]\n"
                             "# the device\n"
                             "spawn mail sensitive heap 64KiB\n"
                             "\n"
                             "lock\n";
    try {
        parseTrialFile(head + "attack nosuchverb\n");
        ADD_FAILURE() << "unknown verb accepted";
    } catch (const fleet::ScenarioError &e) {
        EXPECT_EQ(e.line(), 9u) << e.what();
    }
    try {
        parseTrialFile(head +
                       "attack cold_boot\n[faults]\n\nfault bogus after 1\n");
        ADD_FAILURE() << "unknown fault kind accepted";
    } catch (const FaultParseError &e) {
        EXPECT_EQ(e.line(), 12u) << e.what();
    }
    try {
        parseTrialFile("# reproducer\nseed 0x2a\nexpect maybe\n");
        ADD_FAILURE() << "bad verdict accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()).rfind("line 3: ", 0), 0u)
            << e.what();
    }

    // A replay's step errors name the file's line too.
    const TrialFile file = parseTrialFile(head + "touch mail\n");
    ASSERT_EQ(file.spec.scenario.steps.size(), 3u);
    EXPECT_EQ(file.spec.scenario.steps[0].line, 6u);
    EXPECT_EQ(file.spec.scenario.steps[1].line, 8u);
    const TrialOutcome outcome = runTrial(file.spec, quickOptions());
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error.rfind("line 9: ", 0), 0u) << outcome.error;
}

TEST(Fuzzer, ReplayHonoursTheReproducerPlatform)
{
    // A reproducer replays on the platform its scenario names, as a
    // fleet run would: nexus4 has no cache locking, so Sentry refuses
    // the background spawn there, while the default tegra3 runs it.
    const TrialFile file =
        parseTrialFile("seed 0x2a\n"
                       "spawn snapshot\n"
                       "[scenario]\n"
                       "platform nexus4\n"
                       "spawn mail sensitive background heap 64KiB\n"
                       "lock\n");
    const TrialOutcome outcome = runTrial(file.spec, quickOptions());
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("background spawn of 'mail'"),
              std::string::npos)
        << outcome.error;

    FuzzTrialSpec tegra3 = file.spec;
    tegra3.scenario.platform.reset();
    EXPECT_TRUE(runTrial(tegra3, quickOptions()).ok);
}

TEST(Fuzzer, ColdBootPinBeatsTheReproducerSpawnLine)
{
    // `--cold-boot` on a `spawn snapshot` reproducer: the pin replaces
    // the header, so the trial is the same reproducer without the
    // line (blank, so the steps keep their file lines), and a
    // reproducer saved from it records no snapshot spawn.
    const std::string body = "[scenario]\n"
                             "spawn mail sensitive heap 64KiB\n"
                             "lock\n"
                             "attack dma\n";
    TrialFile file = parseTrialFile("seed 0x2a\nspawn snapshot\n" + body);
    ASSERT_EQ(file.spec.spawn, fleet::SpawnMode::Snapshot);
    const TrialFile cold = parseTrialFile("seed 0x2a\n\n" + body);

    FuzzOptions options = quickOptions();
    options.pins.spawn = fleet::SpawnMode::ColdBoot;
    fleet::applyPins(options.pins, file.spec.scenario, file.spec.spawn);
    EXPECT_EQ(file.spec.spawn, fleet::SpawnMode::ColdBoot);
    EXPECT_EQ(formatTrialFile(file.spec), formatTrialFile(cold.spec));
    EXPECT_EQ(runTrial(file.spec, options).digest,
              runTrial(cold.spec, options).digest);
}

TEST(Fuzzer, ClassifyOutcomeMapsErrorsToCategories)
{
    TrialOutcome outcome;
    EXPECT_EQ(classifyOutcome(outcome), "ok");

    outcome.ok = false;
    outcome.error = "audit failed after step: plaintext-markers";
    EXPECT_EQ(classifyOutcome(outcome), "audit");
    outcome.error = "DMA attack recovered the secret";
    EXPECT_EQ(classifyOutcome(outcome), "leak");
    outcome.error = "iRAM byte survived reboot";
    EXPECT_EQ(classifyOutcome(outcome), "iram");
    outcome.error = "firmware image accepted";
    EXPECT_EQ(classifyOutcome(outcome), "inject");
    outcome.error = "device wedged";
    EXPECT_EQ(classifyOutcome(outcome), "semantic");
}

TEST(Fuzzer, PinnedLockdownGlitchReproducerStillFails)
{
    const FuzzOptions options = quickOptions();
    const FuzzTrialSpec spec = lockdownGlitchRepro();

    const TrialOutcome outcome = runTrial(spec, options);
    ASSERT_FALSE(outcome.ok) << outcome.digest;
    EXPECT_NE(outcome.error.find("plaintext-markers"),
              std::string::npos)
        << outcome.error;
    EXPECT_EQ(classifyOutcome(outcome), "audit");

    // The glitch is load-bearing: without it the same scenario is safe.
    FuzzTrialSpec clean = spec;
    clean.faults.faults.clear();
    EXPECT_TRUE(runTrial(clean, options).ok);
}

TEST(Fuzzer, ShrinkPreservesTheFailureCategory)
{
    FuzzOptions options = quickOptions();
    options.shrinkBudget = 48;

    // Pad the known reproducer with removable noise: an extra harmless
    // fault and extra scenario steps before the failing tail.
    FuzzTrialSpec padded = lockdownGlitchRepro();
    padded.faults.faults.push_back(
        parseFaultSchedule("fault bus_delay after 1 cycles 64\n")
            .faults.front());
    fleet::Scenario &scenario = padded.scenario;
    fleet::Step sleepStep;
    sleepStep.op = fleet::Op::Sleep;
    sleepStep.seconds = 0.001;
    scenario.steps.insert(scenario.steps.begin() + 2, sleepStep);
    for (unsigned i = 0; i < scenario.steps.size(); ++i)
        scenario.steps[i].line = i + 1;

    const TrialOutcome before = runTrial(padded, options);
    ASSERT_FALSE(before.ok);
    ASSERT_EQ(classifyOutcome(before), "audit");

    const FuzzTrialSpec shrunk = shrinkTrial(padded, options);
    EXPECT_LE(shrunk.faults.faults.size(), padded.faults.faults.size());
    EXPECT_LE(shrunk.scenario.steps.size(), padded.scenario.steps.size());
    EXPECT_LT(shrunk.scenario.steps.size() + shrunk.faults.faults.size(),
              padded.scenario.steps.size() + padded.faults.faults.size());

    const TrialOutcome after = runTrial(shrunk, options);
    EXPECT_FALSE(after.ok);
    EXPECT_EQ(classifyOutcome(after), "audit");
}
