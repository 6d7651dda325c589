/**
 * @file
 * Table 3 — security analysis of storage alternatives to DRAM.
 *
 * For each storage location (DRAM baseline, iRAM, locked L2 cache) and
 * each in-scope attack (cold boot, bus monitoring, DMA), actually run
 * the attack against a device holding a secret in that location and
 * report Safe/UNSAFE.
 *
 * Paper reference: iRAM and locked L2 are Safe against all three (iRAM
 * vs DMA requires TrustZone protection); DRAM is unsafe against all.
 */

#include <cstdio>
#include <memory>
#include <string>

#include "attacks/bus_monitor_attack.hh"
#include "attacks/cold_boot.hh"
#include "attacks/dma_attack.hh"
#include "attacks/v2/cache_attack.hh"
#include "attacks/v2/rowhammer.hh"
#include "attacks/v2/tz_side_channel.hh"
#include "bench_util.hh"
#include "common/bytes.hh"
#include "core/defense_backend.hh"
#include "core/locked_way_manager.hh"
#include "core/onsoc_allocator.hh"
#include "fleet/fleet.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"
#include "os/phys_allocator.hh"

using namespace sentry;
using namespace sentry::attacks;

namespace
{

enum class Storage
{
    Dram,
    Iram,
    IramUnprotected,
    LockedL2,
};

const char *
storageName(Storage s)
{
    switch (s) {
      case Storage::Dram:
        return "DRAM (baseline)";
      case Storage::Iram:
        return "iRAM (TZ-protected)";
      case Storage::IramUnprotected:
        return "iRAM (no TrustZone)";
      case Storage::LockedL2:
        return "Locked L2 Cache";
    }
    return "?";
}

const auto SECRET = fromHex("ba5eba11f005ba11ba5eba11f005ba11");

/** Place SECRET into the requested storage on a fresh device. */
std::unique_ptr<hw::Soc>
makeVictim(Storage storage)
{
    auto soc =
        std::make_unique<hw::Soc>(hw::PlatformConfig::tegra3(32 * MiB));
    switch (storage) {
      case Storage::Dram:
        // Several copies, as real app data would have (heap, caches,
        // IPC buffers) — and so one decayed bit cannot flip the cell.
        for (unsigned i = 0; i < 16; ++i) {
            soc->memory().write(DRAM_BASE + 4 * MiB + i * PAGE_SIZE,
                                SECRET.data(), SECRET.size());
        }
        soc->l2().cleanAllMasked();
        break;
      case Storage::Iram: {
        soc->iram().write(128 * KiB, SECRET.data(), SECRET.size());
        hw::SecureWorldGuard guard(soc->trustzone());
        soc->trustzone().protectRegionFromDma(IRAM_BASE,
                                              soc->iram().size());
        break;
      }
      case Storage::IramUnprotected:
        soc->iram().write(128 * KiB, SECRET.data(), SECRET.size());
        break;
      case Storage::LockedL2: {
        core::LockedWayManager manager(*soc, DRAM_BASE + 16 * MiB);
        const auto region = manager.lockWay();
        soc->memory().write(region->base, SECRET.data(), SECRET.size());
        break;
      }
    }
    return soc;
}

bool
coldBootUnsafe(Storage storage)
{
    // The strongest cold-boot variant per target: reflash for on-SoC
    // storage (power loss => firmware zeroing), reflash for DRAM too
    // (97.5% survives).
    auto soc = makeVictim(storage);
    ColdBootAttack attack(ColdBootVariant::DeviceReflash);
    return attack.run(*soc, SECRET, storageName(storage))
        .secretRecovered;
}

bool
busMonitorUnsafe(Storage storage)
{
    auto soc = makeVictim(storage);
    BusMonitorAttack attack(*soc);
    attack.startCapture();

    // The victim actively uses the secret: read it 64 times through
    // the CPU path, with cache pressure so DRAM-resident secrets keep
    // crossing the bus.
    PhysAddr addr = 0;
    switch (storage) {
      case Storage::Dram:
        addr = DRAM_BASE + 4 * MiB;
        break;
      case Storage::Iram:
      case Storage::IramUnprotected:
        addr = IRAM_BASE + 128 * KiB;
        break;
      case Storage::LockedL2:
        addr = DRAM_BASE + 16 * MiB;
        break;
    }
    std::uint8_t buf[16];
    for (int i = 0; i < 64; ++i) {
        soc->memory().read(addr, buf, sizeof(buf));
        soc->l2().flushAllMasked(); // ambient cache pressure
    }
    return attack.analyzeForSecret(SECRET, storageName(storage))
        .secretRecovered;
}

bool
dmaUnsafe(Storage storage)
{
    auto soc = makeVictim(storage);
    DmaAttack attack;
    return attack.run(*soc, SECRET, storageName(storage))
        .secretRecovered;
}

// ---------------------------------------------------------------------
// Adversary suite v2 (DESIGN.md section 12): each row runs the attack
// twice — defense off, defense on — on fresh fixed-seed devices.
// ---------------------------------------------------------------------

constexpr std::uint64_t V2_SEED = 0x5eedf00d;

v2::CacheAttackConfig
v2AttackerConfig(hw::Soc &soc, PhysAddr victim)
{
    v2::CacheAttackConfig config;
    config.victimAddr = victim;
    const std::size_t span =
        (soc.l2().ways() + 1) * soc.l2().waySizeBytes();
    config.attackerBase = soc.dramEnd() - span;
    config.attackerSpan = span;
    return config;
}

v2::VictimFn
v2ReadVictim(PhysAddr victim)
{
    return [victim](hw::Soc &s) {
        std::uint8_t buf[4];
        s.memory().read(victim, buf, sizeof buf);
    };
}

/** Run one cache attack against a plain line or a locked-way line. */
v2::AttackOutcome
cacheAttackOutcome(bool prime_probe, bool locked)
{
    hw::Soc soc(hw::PlatformConfig::tegra3(32 * MiB));
    PhysAddr victim = DRAM_BASE + 4 * MiB + 64;
    std::unique_ptr<core::LockedWayManager> manager;
    if (locked) {
        manager = std::make_unique<core::LockedWayManager>(
            soc, DRAM_BASE + 16 * MiB);
        victim = manager->lockWay()->base + 64;
    }
    soc.memory().write(victim, SECRET.data(), SECRET.size());

    const v2::CacheAttackConfig config = v2AttackerConfig(soc, victim);
    if (prime_probe) {
        v2::PrimeProbeAttack attack(config, v2ReadVictim(victim), V2_SEED);
        return attack.run(soc);
    }
    v2::EvictReloadAttack attack(config, v2ReadVictim(victim), V2_SEED);
    return attack.run(soc);
}

/**
 * Hammer and count flips that reached the victim row. Defense off: the
 * attacker's aggressor row is bank-adjacent to the victim's. Defense
 * on: aggressors come from the CATT-partitioned allocator's attacker
 * region, a guard row away from every victim row.
 */
std::uint64_t
rowhammerVictimFlips(bool catt)
{
    hw::Soc soc(hw::PlatformConfig::tegra3(32 * MiB));
    const hw::DramGeometry &geom = soc.dram().geometry();

    v2::RowhammerConfig config;
    os::PhysAllocator alloc(DRAM_BASE, soc.dram().size());
    if (catt) {
        os::RowPartition plan;
        plan.rowBytes = geom.rowBytes;
        plan.banks = geom.banks;
        plan.victimRowLimit = geom.rowsPerBank(soc.dram().size()) * 3 / 4;
        plan.guardRows = 1;
        plan.geomBase = DRAM_BASE;
        alloc.partitionRows(plan);
        for (int i = 0; i < 4; ++i)
            config.aggressors.push_back(
                alloc.allocFrame(os::MemDomain::Attacker));
    } else {
        // The attacker managed to grab a frame one bank-adjacent row
        // away from the victim's secret.
        config.aggressors.push_back(DRAM_BASE + 64 * geom.rowBytes);
    }

    const PhysAddr victimOff =
        catt ? (alloc.allocFrame(os::MemDomain::Victim) - DRAM_BASE)
             : (64 + geom.banks) * geom.rowBytes;
    const std::uint8_t target = 0xff; // the bit the attacker wants
    soc.dram().writeCells(victimOff, &target, 1);

    v2::RowhammerAttack attack(config, V2_SEED);
    attack.run(soc);
    std::uint64_t victimFlips = 0;
    for (const hw::FlippedBit &flip : attack.flips()) {
        const bool hit =
            catt ? alloc.inVictimRows(
                       alignDown(DRAM_BASE + flip.offset, PAGE_SIZE))
                 : geom.globalRow(flip.offset) == geom.globalRow(victimOff);
        if (hit)
            ++victimFlips;
    }
    return victimFlips;
}

// ---------------------------------------------------------------------
// Defense backends (DESIGN.md section 13): the same attack schedule
// dispatched against Sentry, Amnesia, and MemShield through the fleet
// device runner. Each cell is one fixed-seed device: warm it up, lock
// it, mount exactly one attack verb, and score the verdict.
// ---------------------------------------------------------------------

/** One (backend, attack) cell of the defense comparison matrix. */
fleet::DeviceResult
defenseCell(core::DefenseKind kind, const char *verb)
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
    const fleet::Scenario scenario = fleet::parseScenario(
        text, std::string("defense-") + core::defenseKindName(kind));
    fleet::FleetOptions options;
    options.devices = 1;
    options.seed = V2_SEED;
    return fleet::replayFleetDevice(scenario, options, 0);
}

v2::AttackOutcome
tzSideChannelOutcome(bool hardened)
{
    hw::Soc soc(hw::PlatformConfig::tegra3(32 * MiB));
    v2::TzSecretService service(soc, DRAM_BASE + 4 * MiB, hardened);
    v2::TzSideChannelConfig config;
    const std::size_t span =
        (soc.l2().ways() + 1) * soc.l2().waySizeBytes();
    config.attackerBase = soc.dramEnd() - span;
    config.attackerSpan = span;
    v2::TzSideChannelAttack attack(config, service, V2_SEED);
    return attack.run(soc);
}

} // namespace

int
main()
{
    setQuiet(true);
    bench::Session session("table3_security_matrix");
    bench::banner("Table 3: security analysis of storage alternatives",
                  "each cell = outcome of actually running the attack");

    const char *storageSlugs[] = {"dram", "iram_tz", "iram_plain",
                                  "locked_l2"};
    const Storage storages[] = {Storage::Dram, Storage::Iram,
                                Storage::IramUnprotected,
                                Storage::LockedL2};
    std::printf("%-22s %-16s %-16s %-16s\n", "", "Cold Boot",
                "Bus Monitoring", "DMA Attacks");
    for (std::size_t s = 0; s < std::size(storages); ++s) {
        const Storage storage = storages[s];
        const bool cold = coldBootUnsafe(storage);
        const bool busmon = busMonitorUnsafe(storage);
        const bool dma = dmaUnsafe(storage);
        std::printf("%-22s %-16s %-16s %-16s\n", storageName(storage),
                    cold ? "UNSAFE" : "Safe", busmon ? "UNSAFE" : "Safe",
                    dma ? "UNSAFE" : "Safe");
        session.metric(std::string("sim_unsafe_coldboot_") +
                           storageSlugs[s],
                       static_cast<std::uint64_t>(cold));
        session.metric(std::string("sim_unsafe_busmon_") + storageSlugs[s],
                       static_cast<std::uint64_t>(busmon));
        session.metric(std::string("sim_unsafe_dma_") + storageSlugs[s],
                       static_cast<std::uint64_t>(dma));
    }
    std::printf("\nPaper: iRAM Safe/Safe/Safe (DMA safety requires ARM "
                "TrustZone);\n       locked L2 Safe/Safe/Safe; "
                "plain DRAM is the attack surface.\n");

    // Section 9 comparison: TRESOR/AESSE-style register-only key
    // protection. The key survives cold boot and DMA, but the lookup
    // tables stay in DRAM — and their access pattern leaks the key to
    // a bus monitor.
    std::printf("\nRelated work (section 9): TRESOR-style register-only "
                "AES key\n");
    {
        const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
        hw::Soc soc(hw::PlatformConfig::tegra3(32 * MiB));
        crypto::SimAesEngine tresor(
            soc, DRAM_BASE + 8 * MiB, key, crypto::StatePlacement::Dram,
            false, crypto::SecretResidency::RegistersOnly);

        soc.l2().cleanAllMasked();
        const bool keyInDram = containsBytes(soc.dramRaw(), key);

        BusMonitorAttack probe(soc);
        Rng rng(77);
        const auto sideChannel = probe.recoverAesKeyBits(tresor, 60, rng);

        std::printf("%-22s %-16s %-16s %-16s\n", "Key in registers",
                    keyInDram ? "UNSAFE" : "Safe",
                    sideChannel.recoveredBytes() >= 8 ? "UNSAFE" : "Safe",
                    keyInDram ? "UNSAFE" : "Safe");
        std::printf("  (bus monitor recovered the top 5 bits of %zu/16 "
                    "key bytes from table accesses)\n",
                    sideChannel.recoveredBytes());
        session.metric("sim_tresor_key_in_dram",
                       static_cast<std::uint64_t>(keyInDram));
        session.metric(
            "sim_tresor_recovered_bytes",
            static_cast<std::uint64_t>(sideChannel.recoveredBytes()));
    }

    // Adversary suite v2: the post-paper attacks (DESIGN.md section
    // 12), each run with the matching defense off and on.
    std::printf("\nAdversary suite v2: microarchitectural attacks\n");
    std::printf("%-22s %-16s %-16s\n", "", "Defense off", "Defense on");
    {
        const v2::AttackOutcome ppOpen =
            cacheAttackOutcome(/*prime_probe=*/true, /*locked=*/false);
        const v2::AttackOutcome ppLocked =
            cacheAttackOutcome(/*prime_probe=*/true, /*locked=*/true);
        std::printf("%-22s %-16s %-16s\n", "Prime+Probe (L2)",
                    ppOpen.secretRecovered ? "UNSAFE" : "Safe",
                    ppLocked.secretRecovered ? "UNSAFE" : "Safe");
        session.metric("sim_unsafe_prime_probe_open",
                       static_cast<std::uint64_t>(ppOpen.secretRecovered));
        session.metric(
            "sim_unsafe_prime_probe_locked",
            static_cast<std::uint64_t>(ppLocked.secretRecovered));
        session.metric("sim_v2_prime_probe_locked_writebacks",
                       ppLocked.counter("locked_writebacks"));

        const v2::AttackOutcome erOpen =
            cacheAttackOutcome(/*prime_probe=*/false, /*locked=*/false);
        const v2::AttackOutcome erLocked =
            cacheAttackOutcome(/*prime_probe=*/false, /*locked=*/true);
        std::printf("%-22s %-16s %-16s\n", "Evict+Reload (L2)",
                    erOpen.secretRecovered ? "UNSAFE" : "Safe",
                    erLocked.secretRecovered ? "UNSAFE" : "Safe");
        session.metric("sim_unsafe_evict_reload_open",
                       static_cast<std::uint64_t>(erOpen.secretRecovered));
        session.metric(
            "sim_unsafe_evict_reload_locked",
            static_cast<std::uint64_t>(erLocked.secretRecovered));

        const std::uint64_t hammerOpen =
            rowhammerVictimFlips(/*catt=*/false);
        const std::uint64_t hammerCatt =
            rowhammerVictimFlips(/*catt=*/true);
        std::printf("%-22s %-16s %-16s\n", "Rowhammer (DRAM)",
                    hammerOpen != 0 ? "UNSAFE" : "Safe",
                    hammerCatt != 0 ? "UNSAFE" : "Safe");
        session.metric("sim_unsafe_rowhammer_open",
                       static_cast<std::uint64_t>(hammerOpen != 0));
        session.metric("sim_unsafe_rowhammer_catt",
                       static_cast<std::uint64_t>(hammerCatt != 0));
        session.metric("sim_v2_rowhammer_victim_flips_open", hammerOpen);
        session.metric("sim_v2_rowhammer_victim_flips_catt", hammerCatt);

        const v2::AttackOutcome tzOpen =
            tzSideChannelOutcome(/*hardened=*/false);
        const v2::AttackOutcome tzHardened =
            tzSideChannelOutcome(/*hardened=*/true);
        std::printf("%-22s %-16s %-16s\n", "TZ mailbox channel",
                    tzOpen.secretRecovered ? "UNSAFE" : "Safe",
                    tzHardened.secretRecovered ? "UNSAFE" : "Safe");
        session.metric("sim_unsafe_tz_sidechannel_open",
                       static_cast<std::uint64_t>(tzOpen.secretRecovered));
        session.metric(
            "sim_unsafe_tz_sidechannel_hardened",
            static_cast<std::uint64_t>(tzHardened.secretRecovered));
        session.metric("sim_v2_tz_recovered_nibbles_open",
                       tzOpen.counter("recovered_nibbles"));
        session.metric("sim_v2_tz_recovered_nibbles_hardened",
                       tzHardened.counter("recovered_nibbles"));
    }
    std::printf("\nDefenses: locked L2 ways pin the monitored line "
                "(no eviction signal);\n          CATT row partition "
                "keeps aggressors a guard row away;\n          "
                "constant-touch mailboxes make SMC timing "
                "secret-independent.\n");

    // Defense backends: 3 designs x 7 attack verbs, identical fixed
    // attack schedule per verb (the schedule digest is derived from the
    // seed alone, so every backend faces the same adversary).
    std::printf("\nDefense backends: verdicts under identical attack "
                "schedules\n");
    const core::DefenseKind kinds[] = {core::DefenseKind::Sentry,
                                       core::DefenseKind::Amnesia,
                                       core::DefenseKind::MemShield};
    const char *verbs[] = {"cold_boot",    "bus_monitor", "dma",
                           "prime_probe",  "evict_reload", "rowhammer",
                           "tz_side_channel"};
    std::printf("%-22s %-16s %-16s %-16s\n", "", "Sentry", "Amnesia",
                "MemShield");
    std::uint64_t scheduleMismatches = 0;
    for (const char *verb : verbs) {
        std::printf("%-22s", verb);
        std::string sentrySchedule;
        for (const core::DefenseKind kind : kinds) {
            const fleet::DeviceResult cell = defenseCell(kind, verb);
            const std::uint64_t breaches =
                cell.defenseClaimBreaches + cell.defenseVulnerableHits;
            std::printf(" %-16s", breaches != 0 ? "BREACHED" : "Defended");
            session.metric(std::string("sim_defense_breached_") +
                               core::defenseKindName(kind) + "_" + verb,
                           static_cast<std::uint64_t>(breaches != 0));
            // The attack-side schedule must not depend on the defense:
            // any cross-backend divergence is a harness bug.
            if (kind == core::DefenseKind::Sentry)
                sentrySchedule = cell.scheduleDigest;
            else if (cell.scheduleDigest != sentrySchedule)
                ++scheduleMismatches;
        }
        std::printf("\n");
    }
    session.metric("sim_defense_schedule_mismatches", scheduleMismatches);

    // Per-backend simulated overhead over baseline Sentry, measured on
    // the shared warm-up workload (unlocked filebench + paging + one
    // lock epoch) with the non-destructive DMA attack appended.
    std::printf("\n%-22s %-10s %-10s %-14s %-14s\n", "Backend overhead",
                "rekeys", "evictions", "extra ms", "extra mJ");
    for (const core::DefenseKind kind : kinds) {
        const fleet::DeviceResult cell = defenseCell(kind, "dma");
        const std::string name = core::defenseKindName(kind);
        std::printf("%-22s %-10llu %-10llu %-14.3f %-14.3f\n",
                    name.c_str(),
                    static_cast<unsigned long long>(cell.defenseRekeys),
                    static_cast<unsigned long long>(cell.defenseEvictions),
                    cell.defenseExtraSeconds * 1e3,
                    cell.defenseExtraJoules * 1e3);
        session.metric("sim_defense_" + name + "_rekeys",
                       cell.defenseRekeys);
        session.metric("sim_defense_" + name + "_evictions",
                       cell.defenseEvictions);
        session.metric("sim_defense_" + name + "_extra_seconds",
                       cell.defenseExtraSeconds);
        session.metric("sim_defense_" + name + "_extra_joules",
                       cell.defenseExtraJoules);
    }
    std::printf("\nClaims: Sentry defeats all seven; Amnesia only the "
                "power-loss attacks\n        (cold boot, DMA); MemShield "
                "everything but Rowhammer and the\n        TrustZone "
                "side channel. BREACHED cells outside a backend's\n"
                "        claim are expected: that is the design's "
                "documented exposure.\n");
    return 0;
}
