/**
 * @file
 * Differential harness for the pluggable defense backends: Sentry,
 * Amnesia, and MemShield face *identical* attack schedules — pinned
 * (seed, scenario, fault schedule) triples — and must diverge only in
 * their verdicts, never in the adversary. Three guarantees are pinned:
 *
 *  1. The attack-side schedule digest is byte-identical across all
 *     three backends (the schedule is derived from the fleet seed
 *     alone, so the defense cannot perturb the adversary).
 *  2. Each backend's verdict matrix matches its claimed threat
 *     coverage: a breach lands exactly on the claimed-vulnerable
 *     cells (defenseVulnerableHits), and no claimed-defeated threat is
 *     ever breached (defenseClaimBreaches stays 0).
 *  3. The default Sentry backend is bit-identical to a scenario with
 *     no `defense` directive at all — the refactor added a seam, not
 *     a behavior change.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/defense_backend.hh"
#include "fault/fuzzer.hh"
#include "fleet/fleet.hh"
#include "fleet/scenario.hh"

using namespace sentry;
using namespace sentry::fleet;

namespace
{

constexpr std::uint64_t SEED = 0xd1ffe7e57ULL;

constexpr core::DefenseKind KINDS[] = {core::DefenseKind::Sentry,
                                       core::DefenseKind::Amnesia,
                                       core::DefenseKind::MemShield};

/** The seven attack verbs of the comparison matrix, DSL spelling. */
const char *const VERBS[] = {"cold_boot",    "bus_monitor",
                             "dma",          "prime_probe",
                             "evict_reload", "rowhammer",
                             "tz_side_channel"};

/**
 * Expected breach cells (claimed-vulnerable threats whose attack
 * lands), indexed [backend][verb] in KINDS/VERBS order. Sentry defeats
 * all seven; Amnesia only the power-loss family (cold boot, DMA);
 * MemShield everything but Rowhammer and the TrustZone side channel.
 */
constexpr bool EXPECT_BREACH[3][7] = {
    {false, false, false, false, false, false, false},
    {false, true, false, true, true, true, true},
    {false, false, false, false, false, true, true},
};

/** One (backend, attack) cell: warm up, lock, mount a single verb. */
Scenario
cellScenario(core::DefenseKind kind, const char *verb)
{
    const std::string text = std::string("defense ") +
                             core::defenseKindName(kind) +
                             "\n"
                             "spawn wallet sensitive heap 128KiB\n"
                             "filebench 128KiB randread\n"
                             "lock\n"
                             "unlock 0000\n"
                             "touch wallet 64KiB\n"
                             "lock\n"
                             "sleep 100ms\n"
                             "attack " +
                             verb + "\n";
    return parseScenario(text, "defense-cell");
}

/**
 * The full gauntlet: every live verb against the locked device, then
 * the destructive cold-boot finale (reset semantics allow it only as
 * the last step).
 */
Scenario
gauntletScenario(core::DefenseKind kind)
{
    const std::string text = std::string("defense ") +
                             core::defenseKindName(kind) +
                             "\n"
                             "spawn wallet sensitive heap 128KiB\n"
                             "filebench 128KiB randread\n"
                             "lock\n"
                             "unlock 0000\n"
                             "touch wallet 64KiB\n"
                             "lock\n"
                             "attack dma\n"
                             "attack bus_monitor\n"
                             "attack prime_probe\n"
                             "attack evict_reload\n"
                             "attack rowhammer\n"
                             "attack tz_side_channel\n"
                             "attack cold_boot\n";
    return parseScenario(text, "defense-gauntlet");
}

DeviceResult
runCell(const Scenario &scenario)
{
    FleetOptions options;
    options.devices = 1;
    options.seed = SEED;
    return replayFleetDevice(scenario, options, 0);
}

/** The `sched:` segment of a fuzz trial digest ("" when absent). */
std::string
schedSegment(const std::string &digest)
{
    const std::string::size_type at = digest.find(" | sched:");
    return at == std::string::npos ? std::string() : digest.substr(at);
}

/**
 * Scenario text with the `defense` directive replaced by a comment.
 * Keeping the line *count* intact matters: step source lines feed the
 * schedule and attack digests, so dropping the line outright would
 * make every digest diverge for a reason that has nothing to do with
 * the backend.
 */
std::string
withoutDefenseLine(const Scenario &scenario)
{
    const std::string text = formatScenario(scenario);
    std::string out;
    std::string::size_type pos = 0;
    while (pos < text.size()) {
        std::string::size_type end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string line = text.substr(pos, end - pos);
        out += line.rfind("defense ", 0) == 0 ? "# defense elided" : line;
        out += '\n';
        pos = end + 1;
    }
    return out;
}

class DefenseDiff : public testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
};

} // namespace

TEST_F(DefenseDiff, ScheduleDigestIsBackendInvariant)
{
    std::vector<std::string> digests;
    for (const core::DefenseKind kind : KINDS) {
        const DeviceResult result = runCell(gauntletScenario(kind));
        EXPECT_EQ(result.defenseKind, static_cast<unsigned>(kind));
        ASSERT_FALSE(result.scheduleDigest.empty());
        // All seven verbs appear, in execution order (cold boot is the
        // destructive finale, so it comes last).
        const char *const executionOrder[] = {
            "dma",       "bus_monitor",     "prime_probe", "evict_reload",
            "rowhammer", "tz_side_channel", "cold_boot"};
        std::string::size_type at = 0;
        for (const char *verb : executionOrder) {
            const std::string::size_type found =
                result.scheduleDigest.find(verb, at);
            ASSERT_NE(found, std::string::npos) << verb;
            at = found;
        }
        digests.push_back(result.scheduleDigest);
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0], digests[2]);
}

TEST_F(DefenseDiff, VerdictMatrixMatchesClaims)
{
    for (std::size_t k = 0; k < std::size(KINDS); ++k) {
        for (std::size_t v = 0; v < std::size(VERBS); ++v) {
            const DeviceResult cell =
                runCell(cellScenario(KINDS[k], VERBS[v]));
            const std::string label =
                std::string(core::defenseKindName(KINDS[k])) + " vs " +
                VERBS[v];
            // A claimed-defeated threat must never be breached; the
            // legacy failure path would flag it as a run error.
            EXPECT_EQ(cell.defenseClaimBreaches, 0u) << label;
            EXPECT_TRUE(cell.ok) << label << ": " << cell.error;
            // Claimed-vulnerable cells must actually be breached —
            // an attack that silently stops landing is harness rot.
            EXPECT_EQ(cell.defenseVulnerableHits != 0,
                      EXPECT_BREACH[k][v])
                << label;
        }
    }
}

TEST_F(DefenseDiff, DefaultSentryBitIdenticalToNoDirective)
{
    const Scenario tagged =
        cellScenario(core::DefenseKind::Sentry, "dma");
    const Scenario bare =
        parseScenario(withoutDefenseLine(tagged), "defense-cell");
    ASSERT_FALSE(bare.defense);

    const DeviceResult withDirective = runCell(tagged);
    const DeviceResult withoutDirective = runCell(bare);
    EXPECT_EQ(deviceDigest(withDirective),
              deviceDigest(withoutDirective));
    EXPECT_EQ(withDirective.scheduleDigest,
              withoutDirective.scheduleDigest);
    EXPECT_EQ(withDirective.defenseKind, withoutDirective.defenseKind);
}

TEST_F(DefenseDiff, SnapshotForkMatchesColdBootPerBackend)
{
    for (const core::DefenseKind kind : KINDS) {
        const Scenario scenario = gauntletScenario(kind);
        FleetOptions cold;
        cold.devices = 1;
        cold.seed = SEED;
        FleetOptions snap = cold;
        snap.spawnMode = SpawnMode::Snapshot;

        const DeviceResult coldRun =
            replayFleetDevice(scenario, cold, 0);
        const DeviceResult snapRun =
            replayFleetDevice(scenario, snap, 0);
        // The attack schedule is derived from the fleet seed alone, so
        // it never depends on how the device was spawned.
        EXPECT_EQ(coldRun.scheduleDigest, snapRun.scheduleDigest)
            << core::defenseKindName(kind);
        if (kind == core::DefenseKind::Amnesia) {
            // Forking clones the template's working key; cold boot
            // derives the device's own. With Sentry and MemShield the
            // cipher state is on-SoC so the key difference is invisible
            // to the simulated memory system — but Amnesia's
            // DRAM-resident tables make the key show up in bus traffic
            // (that is exactly the leak this backend demonstrates), so
            // the digests legitimately diverge.
            EXPECT_NE(deviceDigest(coldRun), deviceDigest(snapRun));
        } else {
            EXPECT_EQ(deviceDigest(coldRun), deviceDigest(snapRun))
                << core::defenseKindName(kind);
        }
    }
}

TEST_F(DefenseDiff, CostLedgersAccrueWhereTheDesignPays)
{
    const DeviceResult sentry =
        runCell(cellScenario(core::DefenseKind::Sentry, "dma"));
    EXPECT_EQ(sentry.defenseRekeys, 0u);
    EXPECT_EQ(sentry.defenseEvictions, 0u);
    EXPECT_EQ(sentry.defenseExtraSeconds, 0.0);
    EXPECT_EQ(sentry.defenseExtraJoules, 0.0);

    // Amnesia rekeys its working key at each of the two lock epochs.
    const DeviceResult amnesia =
        runCell(cellScenario(core::DefenseKind::Amnesia, "dma"));
    EXPECT_EQ(amnesia.defenseRekeys, 2u);
    EXPECT_EQ(amnesia.defenseEvictions, 0u);
    EXPECT_GT(amnesia.defenseExtraSeconds, 0.0);
    EXPECT_GT(amnesia.defenseExtraJoules, 0.0);

    // MemShield pays per page crossing the working-set boundary: the
    // 16-page touch overflows the 8-page plaintext cap.
    const DeviceResult memshield =
        runCell(cellScenario(core::DefenseKind::MemShield, "dma"));
    EXPECT_EQ(memshield.defenseRekeys, 0u);
    EXPECT_GT(memshield.defenseEvictions, 0u);
    EXPECT_GT(memshield.defenseExtraSeconds, 0.0);
    EXPECT_GT(memshield.defenseExtraJoules, 0.0);
}

TEST_F(DefenseDiff, FuzzTrialsShareScheduleAcrossPinnedBackends)
{
    // Pin the backend per campaign; the defense draw is the last rng
    // draw of generateTrial, so the scenario body and fault schedule
    // of trial i are identical for every pinned backend.
    fault::FuzzOptions base;
    base.device.seed = 0xd1ff5eedULL;
    base.steps = 12;
    base.device.dramBytes = 16 * MiB;

    unsigned trialsWithAttacks = 0;
    for (unsigned index = 0; index < 6; ++index) {
        std::vector<std::string> bodies;
        std::vector<std::string> scheds;
        for (const core::DefenseKind kind : KINDS) {
            fault::FuzzOptions options = base;
            options.pins.defense = kind;
            const fault::FuzzTrialSpec spec =
                fault::generateTrial(options, index);
            EXPECT_EQ(spec.scenario.defense, kind);
            bodies.push_back(withoutDefenseLine(spec.scenario) + "#" +
                             std::to_string(spec.faults.faults.size()));
            const fault::TrialOutcome outcome =
                fault::runTrial(spec, options);
            scheds.push_back(schedSegment(outcome.digest));
        }
        EXPECT_EQ(bodies[0], bodies[1]) << "trial " << index;
        EXPECT_EQ(bodies[0], bodies[2]) << "trial " << index;
        EXPECT_EQ(scheds[0], scheds[1]) << "trial " << index;
        EXPECT_EQ(scheds[0], scheds[2]) << "trial " << index;
        if (!scheds[0].empty())
            ++trialsWithAttacks;
    }
    // The campaign must actually exercise the attack path, or the
    // schedule-parity assertions above were vacuous.
    EXPECT_GT(trialsWithAttacks, 0u);
}
