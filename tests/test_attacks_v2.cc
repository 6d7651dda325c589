/**
 * @file
 * Adversary suite v2 tests: the defense claims of DESIGN.md section 12.
 *
 *   - Prime+Probe and Evict+Reload recover a timing signal from an
 *     ordinary DRAM line but get nothing from a line pinned in a
 *     locked L2 way (and never observe a locked-way writeback);
 *   - Rowhammer flips bits in bank-adjacent rows, and the CATT row
 *     partition keeps every flip out of sensitive frames;
 *   - the naive TrustZone mailbox service leaks the fuse secret nibble
 *     by nibble, the hardened (constant-touch) one leaks nothing;
 *   - every attack is a pure function of its seed, and a
 *     snapshot-forked device replays the identical attack digest a
 *     cold-booted one produces.
 */

#include <gtest/gtest.h>

#include <string>

#include "attacks/v2/cache_attack.hh"
#include "attacks/v2/rowhammer.hh"
#include "attacks/v2/tz_side_channel.hh"
#include "common/logging.hh"
#include "core/locked_way_manager.hh"
#include "fleet/device_runner.hh"
#include "fleet/scenario.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"
#include "os/phys_allocator.hh"

using namespace sentry;
using namespace sentry::attacks::v2;

namespace
{

struct AttackFixture : testing::Test
{
    AttackFixture() : soc(hw::PlatformConfig::tegra3(16 * MiB))
    {
        setQuiet(true);
    }

    /** Attacker-owned read-only region at the top of DRAM, large
     * enough to build a full eviction set for any L2 set. */
    CacheAttackConfig
    attackerConfig(PhysAddr victim)
    {
        CacheAttackConfig config;
        config.victimAddr = victim;
        const std::size_t span =
            (soc.l2().ways() + 1) * soc.l2().waySizeBytes();
        config.attackerBase = soc.dramEnd() - span;
        config.attackerSpan = span;
        return config;
    }

    static VictimFn
    readVictim(PhysAddr victim)
    {
        return [victim](hw::Soc &s) {
            std::uint8_t buf[4];
            s.memory().read(victim, buf, sizeof buf);
        };
    }

    hw::Soc soc;
};

} // namespace

// ---------------------------------------------------------------------
// ARMageddon cache attacks vs lockdown-by-way
// ---------------------------------------------------------------------

TEST_F(AttackFixture, PrimeProbeRecoversSignalFromUnlockedLine)
{
    const PhysAddr victim = DRAM_BASE + 64;
    PrimeProbeAttack attack(attackerConfig(victim), readVictim(victim),
                            0xa11ce);
    const AttackOutcome outcome = attack.run(soc);

    EXPECT_TRUE(outcome.secretRecovered);
    EXPECT_STREQ(outcome.verdict(), "UNSAFE");
    // All 8 ways allocatable, and every round carried the signal.
    EXPECT_EQ(outcome.counter("eviction_set_size"), soc.l2().ways());
    EXPECT_EQ(outcome.counter("signal_rounds"), outcome.counter("rounds"));
    EXPECT_EQ(outcome.counter("locked_writebacks"), 0u);
}

TEST_F(AttackFixture, LockdownDefeatsPrimeProbe)
{
    // Pin a secret-holding line into locked way 0 the way Sentry does.
    core::LockedWayManager manager(soc, DRAM_BASE + 8 * MiB);
    const auto region = manager.lockWay();
    ASSERT_TRUE(region.has_value());
    const PhysAddr victim = region->base + 64;
    std::uint32_t secret = 0x5ec2e7;
    soc.memory().write(victim, reinterpret_cast<std::uint8_t *>(&secret),
                       sizeof secret);

    PrimeProbeAttack attack(attackerConfig(victim), readVictim(victim),
                            0xa11ce);
    const AttackOutcome outcome = attack.run(soc);

    // One way locked: the eviction set shrinks to 7, the victim's
    // accesses hit in the locked way without allocating, and no probe
    // round ever sees a displaced conflict line.
    EXPECT_FALSE(outcome.secretRecovered);
    EXPECT_STREQ(outcome.verdict(), "Safe");
    EXPECT_EQ(outcome.counter("eviction_set_size"), soc.l2().ways() - 1);
    EXPECT_EQ(outcome.counter("signal_rounds"), 0u);
    EXPECT_EQ(outcome.counter("probe_misses"), 0u);
    EXPECT_EQ(outcome.counter("locked_writebacks"), 0u)
        << "a locked way was written back: lockdown failed to pin";
}

TEST_F(AttackFixture, EvictReloadRecoversSignalFromUnlockedLine)
{
    const PhysAddr victim = DRAM_BASE + 2 * MiB + 96;
    EvictReloadAttack attack(attackerConfig(victim), readVictim(victim),
                             0xbadc0de);
    const AttackOutcome outcome = attack.run(soc);

    EXPECT_TRUE(outcome.secretRecovered);
    EXPECT_EQ(outcome.counter("signal_rounds"), outcome.counter("rounds"));
    EXPECT_EQ(outcome.counter("locked_writebacks"), 0u);
}

TEST_F(AttackFixture, LockdownDefeatsEvictReload)
{
    core::LockedWayManager manager(soc, DRAM_BASE + 8 * MiB);
    const auto region = manager.lockWay();
    ASSERT_TRUE(region.has_value());
    const PhysAddr victim = region->base + 128;

    EvictReloadAttack attack(attackerConfig(victim), readVictim(victim),
                             0xbadc0de);
    const AttackOutcome outcome = attack.run(soc);

    // The locked line hits on both the control and the measurement
    // reload, so the timing difference the attack needs never appears.
    EXPECT_FALSE(outcome.secretRecovered);
    EXPECT_EQ(outcome.counter("signal_rounds"), 0u);
    EXPECT_EQ(outcome.counter("locked_writebacks"), 0u);
}

TEST_F(AttackFixture, CacheAttackDigestIsSeedDeterministic)
{
    const PhysAddr victim = DRAM_BASE + 64;
    hw::Soc twin(hw::PlatformConfig::tegra3(16 * MiB));

    PrimeProbeAttack first(attackerConfig(victim), readVictim(victim),
                           0x77);
    PrimeProbeAttack second(attackerConfig(victim), readVictim(victim),
                            0x77);
    EXPECT_EQ(first.run(soc).digest(), second.run(twin).digest());
}

// ---------------------------------------------------------------------
// Rowhammer vs the CATT row partition
// ---------------------------------------------------------------------

TEST_F(AttackFixture, RowhammerFlipsBitsInBankAdjacentRows)
{
    const hw::DramGeometry &geom = soc.dram().geometry();
    const PhysAddr aggressorOff = 64 * geom.rowBytes;

    RowhammerConfig config;
    config.aggressors = {DRAM_BASE + aggressorOff};
    RowhammerAttack attack(config, 0xf1195);
    const AttackOutcome outcome = attack.run(soc);

    ASSERT_TRUE(outcome.secretRecovered);
    ASSERT_FALSE(attack.flips().empty());
    EXPECT_EQ(outcome.counter("bit_flips"), attack.flips().size());
    EXPECT_EQ(outcome.counter("aggressor_rows"), 1u);

    const std::size_t row = geom.globalRow(aggressorOff);
    for (const hw::FlippedBit &flip : attack.flips()) {
        const std::size_t flipRow = geom.globalRow(flip.offset);
        EXPECT_TRUE(flipRow == row - geom.banks ||
                    flipRow == row + geom.banks);
        // The flip really corrupted DRAM (the image boots zeroed).
        EXPECT_EQ(soc.dram().raw()[flip.offset], 1u << flip.bit);
    }
}

TEST_F(AttackFixture, RowhammerDigestIsSeedDeterministic)
{
    const auto campaign = [](hw::Soc &device, std::uint64_t seed) {
        RowhammerConfig config;
        config.aggressors = {
            DRAM_BASE + 64 * device.dram().geometry().rowBytes};
        RowhammerAttack attack(config, seed);
        return attack.run(device).digest();
    };

    hw::Soc twinA(hw::PlatformConfig::tegra3(16 * MiB));
    hw::Soc twinB(hw::PlatformConfig::tegra3(16 * MiB));
    const std::string digest = campaign(soc, 0xd1ce);
    EXPECT_EQ(digest, campaign(twinA, 0xd1ce));
    EXPECT_NE(digest, campaign(twinB, 0xd1cf))
        << "different seeds drew identical flip patterns";
}

TEST(RowPartition, AttackerFramesStayOutsideTheDisturbRadius)
{
    os::PhysAllocator alloc(DRAM_BASE, 16 * MiB);
    const hw::DramGeometry geom;
    const std::size_t rowsPerBank = geom.rowsPerBank(16 * MiB);

    os::RowPartition plan;
    plan.rowBytes = geom.rowBytes;
    plan.banks = geom.banks;
    plan.victimRowLimit = rowsPerBank * 3 / 4;
    plan.guardRows = 1;
    plan.geomBase = DRAM_BASE;
    alloc.partitionRows(plan);

    const PhysAddr victim = alloc.allocFrame(os::MemDomain::Victim);
    EXPECT_TRUE(alloc.inVictimRows(victim));
    EXPECT_LT(geom.rowInBank(victim - DRAM_BASE), plan.victimRowLimit);

    for (int i = 0; i < 8; ++i) {
        const PhysAddr frame =
            alloc.tryAllocFrame(os::MemDomain::Attacker);
        ASSERT_NE(frame, 0u);
        EXPECT_TRUE(alloc.inAttackerRows(frame));
        // Disturbance reaches +-1 row in bank. With >= 1 guard row,
        // even the attacker row closest to the boundary cannot touch a
        // victim row.
        const std::size_t row = geom.rowInBank(frame - DRAM_BASE);
        ASSERT_GE(row, plan.victimRowLimit + plan.guardRows);
        EXPECT_GE(row - 1, plan.victimRowLimit);
    }
}

TEST(RowPartition, StrictDomainsReportExhaustionInsteadOfDying)
{
    // 16 rows total -> 2 rows per bank: victim gets row 0, the guard
    // eats row 1, and the attacker region is empty.
    os::PhysAllocator alloc(DRAM_BASE, 16 * 8 * KiB);
    os::RowPartition plan;
    plan.rowBytes = 8 * KiB;
    plan.banks = 8;
    plan.victimRowLimit = 1;
    plan.guardRows = 1;
    plan.geomBase = DRAM_BASE;
    alloc.partitionRows(plan);

    EXPECT_EQ(alloc.tryAllocFrame(os::MemDomain::Attacker), 0u);
    EXPECT_NE(alloc.tryAllocFrame(os::MemDomain::Victim), 0u);
    // Default keeps full capacity: it prefers victim rows but falls
    // back to any frame rather than failing.
    const std::size_t remaining = alloc.freeFrames();
    for (std::size_t i = 0; i < remaining; ++i)
        EXPECT_NE(alloc.tryAllocFrame(os::MemDomain::Default), 0u);
    EXPECT_EQ(alloc.tryAllocFrame(os::MemDomain::Default), 0u);
}

// ---------------------------------------------------------------------
// TrustZone shared-memory side channel
// ---------------------------------------------------------------------

namespace
{

TzSideChannelConfig
tzAttackerConfig(hw::Soc &soc)
{
    TzSideChannelConfig config;
    const std::size_t span =
        (soc.l2().ways() + 1) * soc.l2().waySizeBytes();
    config.attackerBase = soc.dramEnd() - span;
    config.attackerSpan = span;
    return config;
}

} // namespace

TEST_F(AttackFixture, NaiveTzServiceLeaksEveryNibble)
{
    TzSecretService service(soc, DRAM_BASE + 4 * MiB, /*hardened=*/false);
    ASSERT_TRUE(service.available());

    TzSideChannelAttack attack(tzAttackerConfig(soc), service, 0x7251de);
    const AttackOutcome outcome = attack.run(soc);

    EXPECT_TRUE(outcome.secretRecovered);
    EXPECT_EQ(outcome.counter("recovered_nibbles"), TZ_SECRET_NIBBLES);
    EXPECT_EQ(outcome.counter("ambiguous_probes"), 0u);
    EXPECT_EQ(outcome.counter("smc_entries"), TZ_SECRET_NIBBLES);
    for (unsigned i = 0; i < TZ_SECRET_NIBBLES; ++i)
        EXPECT_EQ(attack.recovered()[i],
                  static_cast<int>(service.nibble(i)))
            << "nibble " << i;
}

TEST_F(AttackFixture, HardenedTzServiceDefeatsTheChannel)
{
    TzSecretService service(soc, DRAM_BASE + 4 * MiB, /*hardened=*/true);
    ASSERT_TRUE(service.available());

    TzSideChannelAttack attack(tzAttackerConfig(soc), service, 0x7251de);
    const AttackOutcome outcome = attack.run(soc);

    // Constant-touch mailbox: every probe sees all 16 lines hot, so no
    // nibble is ever singled out.
    EXPECT_FALSE(outcome.secretRecovered);
    EXPECT_EQ(outcome.counter("recovered_nibbles"), 0u);
    EXPECT_EQ(outcome.counter("ambiguous_probes"), TZ_SECRET_NIBBLES);
    for (unsigned i = 0; i < TZ_SECRET_NIBBLES; ++i)
        EXPECT_EQ(attack.recovered()[i], -1);
}

TEST(TzSideChannel, LockedFirmwareHasNoServiceToAttack)
{
    setQuiet(true);
    hw::Soc soc(hw::PlatformConfig::nexus4(16 * MiB));
    TzSecretService service(soc, DRAM_BASE + 4 * MiB, /*hardened=*/false);
    EXPECT_FALSE(service.available());

    TzSideChannelAttack attack(tzAttackerConfig(soc), service, 0x7251de);
    const AttackOutcome outcome = attack.run(soc);
    EXPECT_FALSE(outcome.secretRecovered);
    EXPECT_EQ(outcome.counter("nibbles"), 0u);
}

// ---------------------------------------------------------------------
// Fleet integration: scenario verbs, defenses on, replay parity
// ---------------------------------------------------------------------

namespace
{

fleet::FleetOptions
fleetOptions()
{
    fleet::FleetOptions options;
    options.devices = 1;
    options.dramBytes = 16 * MiB;
    return options;
}

const char *const ADVERSARY_SCENARIO = "spawn mail sensitive heap 64KiB\n"
                                       "lock\n"
                                       "attack prime_probe\n"
                                       "attack evict_reload\n"
                                       "attack rowhammer\n"
                                       "attack tz_side_channel\n";

} // namespace

TEST(FleetAdversary, LockedDeviceDefeatsAllV2Attacks)
{
    setQuiet(true);
    const fleet::Scenario scenario =
        fleet::parseScenario(ADVERSARY_SCENARIO, "adversary-v2");
    const fleet::DeviceResult result =
        fleet::runDevice(scenario, fleetOptions(), 0);

    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.v2AttacksRun, 4u);
    EXPECT_EQ(result.v2LockedWaybacks, 0u);
    EXPECT_EQ(result.v2VictimRowFlips, 0u);
    EXPECT_EQ(result.v2RecoveredNibbles, 0u);
    // The partitioned allocator hands the attacker real frames; the
    // hammer still flips bits, just never in sensitive rows.
    EXPECT_GT(result.v2RowhammerFlips, 0u);
    EXPECT_NE(result.attackDigest.find("attack=prime_probe"),
              std::string::npos);
    EXPECT_NE(result.attackDigest.find("attack=tz_side_channel"),
              std::string::npos);
    EXPECT_EQ(result.attackDigest.find("recovered=1"), std::string::npos);
}

TEST(FleetAdversary, ColdBootAndSnapshotForkReplayIdenticalDigests)
{
    setQuiet(true);
    const fleet::Scenario scenario =
        fleet::parseScenario(ADVERSARY_SCENARIO, "adversary-v2");

    fleet::FleetOptions cold = fleetOptions();
    const fleet::DeviceResult coldResult =
        fleet::runDevice(scenario, cold, 0);
    const fleet::DeviceResult coldAgain =
        fleet::runDevice(scenario, cold, 0);

    fleet::FleetOptions forked = fleetOptions();
    forked.spawnMode = fleet::SpawnMode::Snapshot;
    forked.templateSnapshot = fleet::makeFleetTemplate(scenario, forked);
    const fleet::DeviceResult forkResult =
        fleet::runDevice(scenario, forked, 0);

    EXPECT_TRUE(coldResult.ok) << coldResult.error;
    EXPECT_TRUE(forkResult.ok) << forkResult.error;
    ASSERT_FALSE(coldResult.attackDigest.empty());
    EXPECT_EQ(coldResult.attackDigest, coldAgain.attackDigest);
    EXPECT_EQ(coldResult.attackDigest, forkResult.attackDigest)
        << "a forked device must replay the cold-boot attack stream";
    EXPECT_EQ(coldResult.v2RowhammerFlips, forkResult.v2RowhammerFlips);
}
