/**
 * @file
 * Scenario DSL parser coverage: every malformed input must fail with a
 * line-numbered ScenarioError (never a crash), and the built-in
 * presets must parse.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/defense_backend.hh"
#include "fleet/scenario.hh"

using namespace sentry;
using namespace sentry::fleet;

namespace
{

/** Parse and return the error, failing the test when it doesn't throw. */
ScenarioError
parseFailure(const std::string &text)
{
    try {
        parseScenario(text, "t");
    } catch (const ScenarioError &e) {
        return e;
    }
    ADD_FAILURE() << "expected ScenarioError for:\n" << text;
    return ScenarioError(0, "did not throw");
}

} // namespace

TEST(FleetScenario, PresetsParse)
{
    for (const std::string &name : builtinScenarioNames()) {
        SCOPED_TRACE(name);
        EXPECT_TRUE(isBuiltinScenario(name));
        const Scenario scenario = builtinScenario(name);
        EXPECT_EQ(scenario.name, name);
        EXPECT_FALSE(scenario.steps.empty());
        EXPECT_GE(scenario.defaultDevices, 1u);
    }
    EXPECT_FALSE(isBuiltinScenario("no-such-preset"));
    EXPECT_THROW(builtinScenario("no-such-preset"), std::runtime_error);
}

TEST(FleetScenario, ParsesFullGrammar)
{
    const Scenario s = parseScenario(
        "# header comment\n"
        "devices 12\n"
        "platform nexus4\n"
        "jitter 25\n"
        "spawn mail sensitive heap 512KiB dma 8KiB\n"
        "spawn radio sensitive background\n"
        "spawn game  # trailing comment\n"
        "touch mail 128KiB\n"
        "lock\n"
        "sleep 250ms\n"
        "attack dma\n"
        "attack cold_boot frozen\n"
        "unlock 0000\n"
        "filebench 4MiB randrw direct\n"
        "suspend 1.5s\n"
        "wake\n"
        "zero_freed\n",
        "full");
    EXPECT_EQ(s.defaultDevices, 12u);
    EXPECT_EQ(s.platform, FleetPlatform::Nexus4);
    EXPECT_DOUBLE_EQ(s.jitter, 0.25);
    EXPECT_TRUE(s.needsBackground());
    ASSERT_EQ(s.steps.size(), 13u);

    const Step &mail = s.steps[0];
    EXPECT_EQ(mail.op, Op::Spawn);
    EXPECT_TRUE(mail.sensitive);
    EXPECT_EQ(mail.bytes, 512 * KiB);
    EXPECT_EQ(mail.dmaBytes, 8 * KiB);
    EXPECT_EQ(mail.line, 5u);

    const Step &sleep = s.steps[5];
    EXPECT_EQ(sleep.op, Op::Sleep);
    EXPECT_DOUBLE_EQ(sleep.seconds, 0.25);

    const Step &frozen = s.steps[7];
    EXPECT_EQ(frozen.op, Op::Attack);
    EXPECT_EQ(frozen.attack, AttackKind::ColdBootReflash);
    EXPECT_TRUE(frozen.frozen);

    const Step &fb = s.steps[9];
    EXPECT_EQ(fb.op, Op::Filebench);
    EXPECT_EQ(fb.workload, os::FilebenchWorkload::RandRW);
    EXPECT_TRUE(fb.directIo);
}

TEST(FleetScenario, BadOpcodeReportsLine)
{
    const ScenarioError e =
        parseFailure("spawn mail\nlock\nexplode now\n");
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("unknown opcode"),
              std::string::npos);
}

TEST(FleetScenario, MalformedDurationReportsLine)
{
    EXPECT_EQ(parseFailure("spawn a\nsleep 250\n").line(), 2u);
    EXPECT_EQ(parseFailure("sleep xyzms\n").line(), 1u);
    EXPECT_EQ(parseFailure("sleep -1s\n").line(), 1u);
    EXPECT_EQ(parseFailure("sleep 0ms\n").line(), 1u);
    EXPECT_EQ(parseFailure("suspend 9000s\n").line(), 1u);
}

TEST(FleetScenario, MalformedSizeReportsLine)
{
    EXPECT_EQ(parseFailure("spawn a heap 4MB\n").line(), 1u);
    EXPECT_EQ(parseFailure("spawn a heap 0KiB\n").line(), 1u);
    EXPECT_EQ(parseFailure("lock\nfilebench 1GiB\n").line(), 2u);
    EXPECT_EQ(parseFailure("spawn a\ntouch a 12.5KiB\n").line(), 2u);
}

TEST(FleetScenario, DeviceCountOutOfRangeReportsLine)
{
    EXPECT_EQ(parseFailure("devices 0\nlock\n").line(), 1u);
    EXPECT_EQ(parseFailure("lock\ndevices 1048577\n").line(), 2u);
    EXPECT_EQ(parseFailure("devices many\nlock\n").line(), 1u);

    const ScenarioError e = parseFailure("lock\ndevices 99999999\n");
    EXPECT_NE(std::string(e.what()).find("out of range"),
              std::string::npos);
}

TEST(FleetScenario, SemanticErrorsReportLine)
{
    // background without sensitive
    EXPECT_EQ(parseFailure("spawn mail background\n").line(), 1u);
    // duplicate spawn
    EXPECT_EQ(parseFailure("spawn a\nspawn a\n").line(), 2u);
    // touch of a process never spawned
    EXPECT_EQ(parseFailure("spawn a\ntouch b\n").line(), 2u);
    // frozen DMA makes no sense
    EXPECT_EQ(parseFailure("attack dma frozen\n").line(), 1u);
    // unknown attack
    EXPECT_EQ(parseFailure("attack meltdown\n").line(), 1u);
    // stray arguments
    EXPECT_EQ(parseFailure("lock now\n").line(), 1u);
    EXPECT_EQ(parseFailure("unlock\n").line(), 1u);
    // bad jitter
    EXPECT_EQ(parseFailure("jitter 150\n").line(), 1u);
    EXPECT_EQ(parseFailure("spawn a\njitter nan\n").line(), 2u);
    // empty scenario
    EXPECT_THROW(parseScenario("# only comments\n\n", "t"),
                 ScenarioError);
}

TEST(FleetScenario, SizeAndDurationUnits)
{
    EXPECT_EQ(parseSize("4096", 1), 4096u);
    EXPECT_EQ(parseSize("16B", 1), 16u);
    EXPECT_EQ(parseSize("512KiB", 1), 512 * KiB);
    EXPECT_EQ(parseSize("4MiB", 1), 4 * MiB);
    EXPECT_DOUBLE_EQ(parseDuration("100us", 1), 100e-6);
    EXPECT_DOUBLE_EQ(parseDuration("250ms", 1), 0.25);
    EXPECT_DOUBLE_EQ(parseDuration("2s", 1), 2.0);
    EXPECT_DOUBLE_EQ(parseDuration("1.5s", 1), 1.5);
}

TEST(FleetScenario, EmptyAndCommentOnlyInputsAreRejected)
{
    // A scenario with no statements cannot drive a device; both the
    // empty string and comment/blank-only text must raise a clean
    // ScenarioError rather than yield a do-nothing scenario.
    EXPECT_THROW(parseScenario("", "t"), ScenarioError);
    EXPECT_THROW(parseScenario("\n\n\n", "t"), ScenarioError);
    EXPECT_THROW(parseScenario("# a\n  # b\n\t\n", "t"), ScenarioError);
    EXPECT_THROW(parseScenario("\r\n# crlf only\r\n", "t"),
                 ScenarioError);
}

TEST(FleetScenario, CrlfAndTrailingWhitespaceAreAccepted)
{
    // Scenario files written on other platforms arrive with CRLF line
    // endings and stray trailing blanks; both must parse identically
    // to clean input.
    const Scenario s = parseScenario("devices 3\r\n"
                                     "spawn mail sensitive   \r\n"
                                     "lock\t\n"
                                     "touch mail 4096 \r\n"
                                     "unlock 0000\r\n",
                                     "crlf");
    EXPECT_EQ(s.defaultDevices, 3u);
    ASSERT_EQ(s.steps.size(), 4u);
    EXPECT_EQ(s.steps[0].op, Op::Spawn);
    EXPECT_EQ(s.steps[0].name, "mail");
    EXPECT_TRUE(s.steps[0].sensitive);
    EXPECT_EQ(s.steps[3].pin, "0000");
}

TEST(FleetScenario, DeviceCountBoundsAreExact)
{
    const std::string tail = "\nlock\n";
    EXPECT_EQ(parseScenario("devices 1" + tail, "t").defaultDevices, 1u);
    EXPECT_EQ(parseScenario("devices 1048576" + tail, "t").defaultDevices,
              MAX_DEVICES);
    EXPECT_EQ(parseFailure("devices 1048577" + tail).line(), 1u);
    EXPECT_EQ(parseFailure("devices 0" + tail).line(), 1u);
}

TEST(FleetScenario, CountDirectivesRefuseASign)
{
    // A count is base-10 digits, like a size: `heap +16KiB` is refused,
    // and so are signed device and shard counts.
    EXPECT_EQ(parseFailure("spawn a heap +16KiB\n").line(), 1u);
    for (const std::string text :
         {"devices +3\n", "devices -3\n", "shards +4\n", "shards -1\n"}) {
        const ScenarioError e = parseFailure(text);
        EXPECT_EQ(e.line(), 1u) << text;
        EXPECT_NE(std::string(e.what()).find("malformed"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FleetScenario, ShardAndAuditDirectivesParse)
{
    const std::string tail = "\nlock\n";
    const Scenario sharded =
        parseScenario("shards 512" + tail, "t");
    EXPECT_EQ(sharded.defaultShards, 512u);
    EXPECT_EQ(parseScenario("shards 4096" + tail, "t").defaultShards,
              MAX_SHARDS);
    EXPECT_EQ(parseFailure("shards 4097" + tail).line(), 1u);
    EXPECT_EQ(parseFailure("shards 0" + tail).line(), 1u);
    EXPECT_EQ(parseFailure("shards many" + tail).line(), 1u);

    const Scenario unset = parseScenario("lock\n", "t");
    EXPECT_EQ(unset.defaultShards, 0u);
    EXPECT_FALSE(unset.auditEveryStep);

    const Scenario everyStep =
        parseScenario("audits every_step" + tail, "t");
    EXPECT_EQ(everyStep.auditEveryStep, true);
    const Scenario transitions =
        parseScenario("audits transitions" + tail, "t");
    EXPECT_EQ(transitions.auditEveryStep, false);
    EXPECT_EQ(parseFailure("audits sometimes" + tail).line(), 1u);
    EXPECT_EQ(parseFailure("audits" + tail).line(), 1u);
}

TEST(FleetScenario, ShardAndAuditDirectivesRoundTrip)
{
    const Scenario first = parseScenario("shards 64\n"
                                         "audits transitions\n"
                                         "lock\n",
                                         "t");
    const Scenario second =
        parseScenario(formatScenario(first), first.name);
    EXPECT_EQ(second.defaultShards, 64u);
    EXPECT_EQ(second.auditEveryStep, false);
}

TEST(FleetScenario, DefenseDirectiveParsesAndRoundTrips)
{
    const std::string tail = "\nlock\n";
    const Scenario unset = parseScenario("lock\n", "t");
    EXPECT_FALSE(unset.defense);

    const struct
    {
        const char *name;
        core::DefenseKind kind;
    } backends[] = {
        {"sentry", core::DefenseKind::Sentry},
        {"amnesia", core::DefenseKind::Amnesia},
        {"memshield", core::DefenseKind::MemShield},
    };
    for (const auto &backend : backends) {
        SCOPED_TRACE(backend.name);
        const Scenario first = parseScenario(
            std::string("defense ") + backend.name + tail, "t");
        EXPECT_EQ(first.defense, backend.kind);
        // formatScenario() must emit the directive back out so saved
        // fuzz repros keep their backend.
        const Scenario second =
            parseScenario(formatScenario(first), first.name);
        EXPECT_EQ(second.defense, backend.kind);
    }
}

TEST(FleetScenario, DefenseDirectiveErrorsReportLine)
{
    const ScenarioError unknown =
        parseFailure("lock\ndefense fortknox\n");
    EXPECT_EQ(unknown.line(), 2u);
    EXPECT_NE(std::string(unknown.what()).find("unknown defense backend"),
              std::string::npos);
    // The diagnostic lists the valid spellings.
    EXPECT_NE(std::string(unknown.what()).find("amnesia"),
              std::string::npos);
    EXPECT_NE(std::string(unknown.what()).find("memshield"),
              std::string::npos);

    const ScenarioError dup =
        parseFailure("defense sentry\ndefense amnesia\nlock\n");
    EXPECT_EQ(dup.line(), 2u);
    EXPECT_NE(std::string(dup.what()).find("duplicate defense"),
              std::string::npos);

    EXPECT_EQ(parseFailure("defense\nlock\n").line(), 1u);
    EXPECT_EQ(parseFailure("defense sentry amnesia\nlock\n").line(), 1u);
}

TEST(FleetScenario, DurationSpellingsParseBitIdentically)
{
    // Scenario digests embed simulated cycle counts, so equal
    // durations must parse to the *same double* no matter how they
    // are spelled — value * 1e-3 and value * 1e-6 differ by one ULP
    // for some inputs (e.g. 100ms vs 100000us), which once split a
    // device digest purely on formatting.
    EXPECT_EQ(parseDuration("100ms", 1), parseDuration("100000us", 1));
    EXPECT_EQ(parseDuration("100ms", 1), parseDuration("0.1s", 1));
    EXPECT_EQ(parseDuration("2s", 1), parseDuration("2000ms", 1));
    EXPECT_EQ(parseDuration("2s", 1), parseDuration("2000000us", 1));
    EXPECT_EQ(parseDuration("1.5s", 1), parseDuration("1500ms", 1));
    EXPECT_EQ(parseDuration("250ms", 1), parseDuration("250000us", 1));
    EXPECT_EQ(parseDuration("5ms", 1), parseDuration("5000us", 1));
}

TEST(FleetScenario, ZeroAndNegativeDurationsAreRejected)
{
    EXPECT_EQ(parseFailure("sleep 0s\n").line(), 1u);
    EXPECT_EQ(parseFailure("sleep 0us\n").line(), 1u);
    EXPECT_EQ(parseFailure("suspend 0ms\n").line(), 1u);
    EXPECT_EQ(parseFailure("suspend -0.5s\n").line(), 1u);
}

TEST(FleetScenario, LiveAttackKindsParseAndRejectFrozen)
{
    const Scenario s = parseScenario("lock\n"
                                     "attack bus_monitor\n"
                                     "attack code_injection\n",
                                     "live");
    ASSERT_EQ(s.steps.size(), 3u);
    EXPECT_EQ(s.steps[1].attack, AttackKind::BusMonitor);
    EXPECT_EQ(s.steps[2].attack, AttackKind::CodeInjection);

    // The freezer variant only applies to power-loss attacks.
    EXPECT_EQ(parseFailure("attack bus_monitor frozen\n").line(), 1u);
    EXPECT_EQ(parseFailure("attack code_injection frozen\n").line(), 1u);
}

TEST(FleetScenario, AdversaryV2KindsParseAndRejectFrozen)
{
    const Scenario s = parseScenario("lock\n"
                                     "attack prime_probe\n"
                                     "attack evict_reload\n"
                                     "attack rowhammer\n"
                                     "attack tz_side_channel\n",
                                     "adversary-v2");
    ASSERT_EQ(s.steps.size(), 5u);
    EXPECT_EQ(s.steps[1].attack, AttackKind::PrimeProbe);
    EXPECT_EQ(s.steps[2].attack, AttackKind::EvictReload);
    EXPECT_EQ(s.steps[3].attack, AttackKind::Rowhammer);
    EXPECT_EQ(s.steps[4].attack, AttackKind::TzSideChannel);
    EXPECT_FALSE(s.steps[1].frozen);

    // None of the live v2 attacks involve a power loss, so the
    // freezer variant is a semantic error for all of them.
    EXPECT_EQ(parseFailure("attack prime_probe frozen\n").line(), 1u);
    EXPECT_EQ(parseFailure("attack evict_reload frozen\n").line(), 1u);
    EXPECT_EQ(parseFailure("attack rowhammer frozen\n").line(), 1u);
    EXPECT_EQ(parseFailure("attack tz_side_channel frozen\n").line(), 1u);

    // The unknown-verb diagnostic names the new kinds.
    const ScenarioError e = parseFailure("attack spectre\n");
    EXPECT_NE(std::string(e.what()).find("prime_probe"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("tz_side_channel"),
              std::string::npos);
}

TEST(FleetScenario, EveryAttackVerbParsesRoundTripsAndGatesFrozen)
{
    for (std::size_t i = 0; i < ATTACK_VERBS.size(); ++i) {
        const AttackVerb &verb = ATTACK_VERBS[i];
        EXPECT_EQ(static_cast<std::size_t>(verb.kind), i) << verb.name;
        const std::string line = std::string("attack ") + verb.name;
        for (const bool frozen : {false, true}) {
            const std::string text = line + (frozen ? " frozen" : "");
            // The freezer variant only applies to power-loss attacks.
            if (frozen && !verb.coldBootFamily) {
                EXPECT_STREQ(parseFailure(text + "\n").what(),
                             "line 1: frozen only applies to cold-boot "
                             "attacks")
                    << text;
                continue;
            }
            const Scenario first = parseScenario("lock\n" + text, "verb");
            ASSERT_EQ(first.steps.size(), 2u) << text;
            EXPECT_EQ(first.steps[1].attack, verb.kind) << text;
            EXPECT_EQ(first.steps[1].frozen, frozen) << text;
            EXPECT_EQ(formatStep(first.steps[1]), text);
            const Scenario second =
                parseScenario(formatScenario(first), first.name);
            ASSERT_EQ(second.steps.size(), 2u) << text;
            EXPECT_EQ(second.steps[1].attack, verb.kind) << text;
            EXPECT_EQ(second.steps[1].frozen, frozen) << text;
        }
    }

    // The unknown-verb diagnostic lists every verb, in table order.
    EXPECT_STREQ(parseFailure("attack spectre\n").what(),
                 "line 1: unknown attack 'spectre' (cold_boot, os_reboot, "
                 "2s_reset, dma, bus_monitor, code_injection, prime_probe, "
                 "evict_reload, rowhammer, tz_side_channel)");
}

TEST(FleetScenario, FormatScenarioRoundTrips)
{
    // The fuzzer serializes shrunk scenarios with formatScenario();
    // parsing that text back must reproduce every step field.
    const Scenario first = parseScenario(
        "devices 7\n"
        "platform nexus4\n"
        "jitter 10\n"
        "spawn mail sensitive background heap 128KiB dma 4KiB\n"
        "touch mail 8KiB\n"
        "filebench 64KiB seqread direct\n"
        "lock\n"
        "sleep 300us\n"
        "attack cold_boot frozen\n"
        "attack bus_monitor\n"
        "attack prime_probe\n"
        "attack evict_reload\n"
        "attack rowhammer\n"
        "attack tz_side_channel\n"
        "zero_freed\n",
        "roundtrip");
    const Scenario second =
        parseScenario(formatScenario(first), first.name);

    EXPECT_EQ(second.defaultDevices, first.defaultDevices);
    EXPECT_EQ(second.platform, first.platform);
    EXPECT_DOUBLE_EQ(second.jitter, first.jitter);
    ASSERT_EQ(second.steps.size(), first.steps.size());
    for (std::size_t i = 0; i < first.steps.size(); ++i) {
        const Step &a = first.steps[i];
        const Step &b = second.steps[i];
        EXPECT_EQ(b.op, a.op) << i;
        EXPECT_EQ(b.name, a.name) << i;
        EXPECT_EQ(b.pin, a.pin) << i;
        EXPECT_EQ(b.sensitive, a.sensitive) << i;
        EXPECT_EQ(b.background, a.background) << i;
        EXPECT_EQ(b.frozen, a.frozen) << i;
        EXPECT_EQ(b.directIo, a.directIo) << i;
        EXPECT_EQ(b.bytes, a.bytes) << i;
        EXPECT_EQ(b.dmaBytes, a.dmaBytes) << i;
        EXPECT_DOUBLE_EQ(b.seconds, a.seconds) << i;
        EXPECT_EQ(b.workload, a.workload) << i;
        EXPECT_EQ(b.attack, a.attack) << i;
    }
}

TEST(FleetScenario, LoadsScenarioFile)
{
    const std::string path =
        testing::TempDir() + "/fleet_scenario_test.scn";
    {
        std::ofstream file(path);
        file << "devices 2\nspawn mail sensitive\nlock\nunlock 0000\n";
    }
    const Scenario s = loadScenarioFile(path);
    EXPECT_EQ(s.name, "fleet_scenario_test");
    EXPECT_EQ(s.defaultDevices, 2u);
    EXPECT_EQ(s.steps.size(), 3u);
    std::remove(path.c_str());

    EXPECT_THROW(loadScenarioFile("/nonexistent/missing.scn"),
                 std::runtime_error);
}
