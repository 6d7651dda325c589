/**
 * @file
 * Attack-harness tests: cold-boot variants against protected and
 * unprotected devices, DMA attacks with and without TrustZone/cache
 * protection, and bus-monitor payload capture — the behaviours behind
 * the paper's Tables 2 and 3 — plus the streamed DMA and bus-probe
 * greps and the in-place cold-boot readout checked against their
 * materialized references.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>

#include "attacks/cold_boot.hh"
#include "attacks/dma_attack.hh"
#include "attacks/bus_monitor_attack.hh"
#include "common/bytes.hh"
#include "common/rng.hh"
#include "core/device.hh"
#include "core/invariant_checker.hh"
#include "fault/fault_injector.hh"

using namespace sentry;
using namespace sentry::attacks;
using namespace sentry::core;
using namespace sentry::os;

namespace
{

const auto SECRET = fromHex("5a11e7c0de5a11e7c0de5a11e7c0de5a");

/** A device with one sensitive app holding SECRET, screen locked. */
struct VictimFixture : testing::Test
{
    VictimFixture() : device(hw::PlatformConfig::tegra3(32 * MiB))
    {
        app = &device.kernel().createProcess("victim");
        const Vma &vma = device.kernel().addVma(*app, "heap",
                                                VmaType::Heap,
                                                16 * PAGE_SIZE);
        heap = vma.base;
        for (std::size_t off = 0; off < vma.size; off += PAGE_SIZE) {
            device.kernel().writeVirt(*app, heap + off, SECRET.data(),
                                      SECRET.size());
        }
        device.sentry().markSensitive(*app);
    }

    Device device;
    Process *app;
    VirtAddr heap;
};

} // namespace

TEST_F(VictimFixture, ColdBootRecoversSecretsFromUnlockedDevice)
{
    // Screen NOT locked: plaintext in DRAM, every variant that
    // preserves DRAM wins.
    device.soc().l2().cleanAllMasked();
    ColdBootAttack attack(ColdBootVariant::OsReboot);
    const v2::AttackOutcome result =
        attack.run(device.soc(), SECRET, "plaintext in DRAM");
    EXPECT_TRUE(result.secretRecovered);
    EXPECT_STREQ(result.verdict(), "UNSAFE");
}

TEST_F(VictimFixture, ColdBootDefeatedByEncryptOnLock)
{
    device.kernel().lockScreen();
    for (auto variant : {ColdBootVariant::OsReboot,
                         ColdBootVariant::DeviceReflash,
                         ColdBootVariant::TwoSecondReset}) {
        // A fresh reset per variant is unnecessary here: each attack
        // only further degrades memory. Even the gentlest one finds
        // nothing.
        ColdBootAttack attack(variant);
        const v2::AttackOutcome result =
            attack.run(device.soc(), SECRET, "locked device");
        EXPECT_FALSE(result.secretRecovered)
            << coldBootVariantName(variant);
    }
}

TEST_F(VictimFixture, ColdBootCannotRecoverVolatileKeyFromIram)
{
    const RootKey key = device.sentry().keys().volatileKey();
    device.kernel().lockScreen();

    ColdBootAttack attack(ColdBootVariant::DeviceReflash);
    const v2::AttackOutcome result = attack.run(
        device.soc(), {key.data(), key.size()}, "volatile key in iRAM");
    // Boot firmware zeroes iRAM on any power loss.
    EXPECT_FALSE(result.secretRecovered);
}

TEST_F(VictimFixture, OsRebootPreservesIramContents)
{
    // The OS-reboot variant does NOT cut power: iRAM survives (Table 2
    // row 1: 100%). An attacker OS could read the volatile key from
    // iRAM — which is why deep-lock/boot-auth matters on unlocked
    // bootloaders.
    const RootKey key = device.sentry().keys().volatileKey();
    device.kernel().lockScreen();

    ColdBootAttack attack(ColdBootVariant::OsReboot);
    const v2::AttackOutcome result = attack.run(
        device.soc(), {key.data(), key.size()}, "volatile key in iRAM");
    EXPECT_TRUE(result.secretRecovered);
}

TEST_F(VictimFixture, FreezerExtendsTwoSecondResetRecovery)
{
    device.soc().l2().cleanAllMasked();

    // Room temperature: the 2 s reset destroys nearly everything.
    {
        Device roomDevice(hw::PlatformConfig::tegra3(32 * MiB));
        auto &k = roomDevice.kernel();
        Process &p = k.createProcess("v");
        const Vma &vma = k.addVma(p, "h", VmaType::Heap, 64 * PAGE_SIZE);
        std::vector<std::uint8_t> page(PAGE_SIZE);
        fillPattern(page, SECRET);
        for (std::size_t off = 0; off < vma.size; off += PAGE_SIZE)
            k.writeVirt(p, vma.base + off, page.data(), page.size());
        roomDevice.soc().l2().cleanAllMasked();

        ColdBootAttack room(ColdBootVariant::TwoSecondReset, 22.0);
        ColdBootAttack frozen(ColdBootVariant::TwoSecondReset, -18.0);

        // Run the frozen attack on this device and the room-temp one on
        // the fixture device (both have the secret everywhere).
        const v2::AttackOutcome coldResult =
            frozen.run(roomDevice.soc(), SECRET, "frozen DRAM");
        EXPECT_TRUE(coldResult.secretRecovered);

        const v2::AttackOutcome roomResult =
            room.run(device.soc(), SECRET, "room-temperature DRAM");
        // 16 copies of the secret at 0.1% unit survival: recovery of an
        // intact copy is overwhelmingly unlikely.
        EXPECT_FALSE(roomResult.secretRecovered);
    }
}

TEST_F(VictimFixture, DmaAttackReadsUnlockedDram)
{
    device.soc().l2().cleanAllMasked();
    DmaAttack attack;
    const v2::AttackOutcome result =
        attack.run(device.soc(), SECRET, "plaintext in DRAM");
    EXPECT_TRUE(result.secretRecovered);
}

TEST_F(VictimFixture, DmaAttackDefeatedByEncryptOnLock)
{
    device.kernel().lockScreen();
    DmaAttack attack;
    const v2::AttackOutcome result =
        attack.run(device.soc(), SECRET, "locked device");
    EXPECT_FALSE(result.secretRecovered);
}

TEST_F(VictimFixture, DmaAttackCannotReachProtectedIram)
{
    // Sentry protected iRAM from DMA at construction (TrustZone).
    const RootKey key = device.sentry().keys().volatileKey();
    device.kernel().lockScreen();

    DmaAttack attack;
    const v2::AttackOutcome result = attack.run(
        device.soc(), {key.data(), key.size()}, "volatile key in iRAM");
    EXPECT_FALSE(result.secretRecovered);

    bool denied = false;
    for (const auto &note : result.notes)
        denied |= note.find("denied") != std::string::npos;
    EXPECT_TRUE(denied);
}

TEST(DmaAttackNexus, UnprotectedIramIsReadable)
{
    // On a device without TrustZone access, iRAM cannot be protected:
    // DMA dumps it (the caveat in section 4.4).
    hw::Soc nexus(hw::PlatformConfig::nexus4(16 * MiB));
    const auto secret = fromHex("0123456789abcdef0123456789abcdef");
    nexus.iram().write(0x8000, secret.data(), secret.size());

    DmaAttack attack;
    const v2::AttackOutcome result =
        attack.run(nexus, secret, "key in unprotected iRAM");
    EXPECT_TRUE(result.secretRecovered);
}

TEST_F(VictimFixture, DmaAttackCannotSeeLockedCacheLines)
{
    const auto region = device.sentry().wayManager().lockWay();
    ASSERT_TRUE(region.has_value());
    const auto lockedSecret = fromHex("feedfeedfeedfeedfeedfeedfeedfeed");
    device.soc().memory().write(region->base, lockedSecret.data(),
                                lockedSecret.size());

    DmaAttack attack;
    const v2::AttackOutcome result =
        attack.run(device.soc(), lockedSecret, "data in locked L2 way");
    EXPECT_FALSE(result.secretRecovered);
}

TEST_F(VictimFixture, BusMonitorSeesPlaintextPageTraffic)
{
    BusMonitorAttack attack(device.soc());
    attack.startCapture();

    // Unprotected operation: app data moves over the bus in the clear.
    std::uint8_t buf[16];
    device.kernel().readVirt(*app, heap, buf, 16);
    device.soc().l2().cleanAllMasked(); // force writebacks across the bus

    const v2::AttackOutcome result =
        attack.analyzeForSecret(SECRET, "app heap traffic");
    EXPECT_TRUE(result.secretRecovered);
}

TEST_F(VictimFixture, BusMonitorSeesOnlyCiphertextWhenLocked)
{
    device.kernel().lockScreen();

    BusMonitorAttack attack(device.soc());
    attack.startCapture();
    device.kernel().unlockScreen("0000");
    // Decrypt a page on demand: the DRAM side of the transfer is
    // ciphertext; plaintext exists only SoC-side.
    std::uint8_t buf[16];
    device.kernel().readVirt(*app, heap, buf, 16);

    const v2::AttackOutcome result =
        attack.analyzeForSecret(SECRET, "decrypt-on-demand traffic");
    EXPECT_FALSE(result.secretRecovered);
}

TEST(AttackReport, Formatting)
{
    v2::AttackOutcome result;
    result.attack = "dma";
    result.target = "iRAM";
    result.secretRecovered = false;
    EXPECT_NE(formatResult(result).find("Safe"), std::string::npos);
    result.secretRecovered = true;
    EXPECT_NE(formatResult(result).find("UNSAFE"), std::string::npos);
}

namespace
{

std::vector<std::uint8_t>
randomBytes(Rng &rng, std::size_t len)
{
    std::vector<std::uint8_t> out(len);
    for (auto &byte : out)
        byte = static_cast<std::uint8_t>(rng.next64());
    return out;
}

/**
 * The runner's DMA verb (grepMemory: bursts grepped as they stream
 * through one markerMatcher() per image) against the materialized
 * reference, checkDumps(dumpRange(DRAM), dumpRange(iRAM)), on markers
 * planted where a streamed grep can go wrong: across a 64 KiB burst
 * seam and a 4 KiB page seam, in the last DRAM bytes (a short last
 * burst), across an iRAM burst seam, and split between the end of DRAM
 * and the start of iRAM (separate images: no seam between them).
 */
void
expectStreamedDmaMatchesDumps(const hw::PlatformConfig &platform,
                              bool iram_readable)
{
    Device device(platform);
    hw::Soc &soc = device.soc();
    InvariantChecker checker(device.kernel(), device.sentry());
    Rng rng(0xd3a5eed);
    const std::size_t burst = DmaAttack::BURST;
    const std::size_t dramSize = soc.dram().size();
    ASSERT_NE(dramSize % burst, 0u) << "want a short last burst";

    const auto plantDram = [&](const std::string &owner, bool sensitive,
                               std::size_t offset, std::size_t len) {
        const auto bytes = randomBytes(rng, len);
        soc.dram().writeCells(offset, bytes.data(), bytes.size());
        checker.addMarker({owner, bytes, sensitive});
    };
    plantDram("burst-seam", true, 2 * burst - 7, 16);
    plantDram("page-seam", false, 3 * burst + 5 * PAGE_SIZE - 11, 24);
    plantDram("dram-end", true, dramSize - 12, 12);
    const auto iramBytes = randomBytes(rng, 16);
    soc.iram().writeCells(2 * burst - 5, iramBytes.data(), iramBytes.size());
    checker.addMarker({"iram-seam", iramBytes, true});
    std::vector<std::uint8_t> straddle(
        checker.markers()[2].bytes.end() - 4,
        checker.markers()[2].bytes.end());
    std::uint8_t iramHead[4];
    soc.iram().read(0, iramHead, sizeof iramHead);
    straddle.insert(straddle.end(), iramHead, iramHead + 4);
    checker.addMarker({"dram-iram-straddle", straddle, true});
    checker.addMarker({"one-byte", {0x00}, false});
    checker.addMarker({"absent", randomBytes(rng, 16), true});
    // With a secure world, also refuse the DRAM burst after one that
    // ends in non-zero bytes: the refused burst must read as zeros, not
    // as what the reused burst buffer held before.
    if (soc.config().secureWorldAvailable) {
        const auto filler = randomBytes(rng, 64);
        soc.dram().writeCells(6 * burst - filler.size(), filler.data(),
                              filler.size());
        hw::SecureWorldGuard secure(soc.trustzone());
        ASSERT_TRUE(
            soc.trustzone().protectRegionFromDma(DRAM_BASE + 6 * burst, 1));
    }

    DmaAttack dma;
    StreamMatcher dram = checker.markerMatcher();
    StreamMatcher iram = checker.markerMatcher();
    const hw::DmaStatus iramStatus = dma.grepMemory(soc, dram, iram);

    hw::DmaStatus dramDumpStatus = hw::DmaStatus::Ok;
    hw::DmaStatus iramDumpStatus = hw::DmaStatus::Ok;
    const auto dramDump =
        dma.dumpRange(soc, DRAM_BASE, dramSize, &dramDumpStatus);
    const auto iramDump =
        dma.dumpRange(soc, IRAM_BASE, soc.iram().size(), &iramDumpStatus);
    EXPECT_EQ(dramDumpStatus, soc.config().secureWorldAvailable
                                  ? hw::DmaStatus::DeniedByTrustZone
                                  : hw::DmaStatus::Ok);
    EXPECT_EQ(iramStatus, iramDumpStatus);
    EXPECT_EQ(iramStatus == hw::DmaStatus::Ok, iram_readable);
    // The reference images hold the cells, and zeros in every burst
    // TrustZone refused.
    const auto image = [&](std::span<const std::uint8_t> cells,
                           PhysAddr base) {
        std::vector<std::uint8_t> want(cells.begin(), cells.end());
        for (std::size_t off = 0; off < want.size(); off += burst) {
            const std::size_t len = std::min(burst, want.size() - off);
            if (soc.trustzone().dmaDenied(base + off, len))
                std::fill_n(want.begin() + off, len, 0);
        }
        return want;
    };
    ASSERT_EQ(dramDump, image(soc.dramRaw(), DRAM_BASE));
    ASSERT_EQ(iramDump, image(soc.iramRaw(), IRAM_BASE));

    for (std::size_t i = 0; i < checker.markers().size(); ++i) {
        const SecretMarker &marker = checker.markers()[i];
        EXPECT_EQ(dram.found(i), containsBytes(dramDump, marker.bytes))
            << marker.owner;
        EXPECT_EQ(iram.found(i), containsBytes(iramDump, marker.bytes))
            << marker.owner;
        // DmaAttack::run streams the same sweeps for one secret.
        const bool expectRun =
            containsBytes(dramDump, marker.bytes) ||
            (iramStatus != hw::DmaStatus::DeniedByTrustZone &&
             containsBytes(iramDump, marker.bytes));
        EXPECT_EQ(dma.run(soc, marker.bytes, marker.owner).secretRecovered,
                  expectRun)
            << marker.owner;
    }
    EXPECT_TRUE(dram.found(0));
    EXPECT_TRUE(dram.found(1));
    EXPECT_TRUE(dram.found(2));
    EXPECT_EQ(iram.found(3), iram_readable);
    EXPECT_FALSE(dram.found(4) || iram.found(4));
    EXPECT_TRUE(dram.found(5));
    EXPECT_FALSE(dram.found(6) || iram.found(6));

    const DumpLeaks streamed = checker.checkDumps(dram, iram);
    const DumpLeaks dumped = checker.checkDumps(dramDump, iramDump);
    EXPECT_EQ(streamed.sensitiveProbed, dumped.sensitiveProbed);
    EXPECT_EQ(streamed.sensitiveLeaked, dumped.sensitiveLeaked);
    EXPECT_EQ(streamed.nonSensitiveLeaks, dumped.nonSensitiveLeaks);
    EXPECT_EQ(streamed.firstLeakedOwner, dumped.firstLeakedOwner);
    EXPECT_EQ(streamed.firstLeakedOwner, "burst-seam");
}

} // namespace

TEST(DmaStreaming, MatchesDumpsWithTrustZoneDeniedIram)
{
    expectStreamedDmaMatchesDumps(hw::PlatformConfig::tegra3(8 * MiB +
                                                             12 * KiB),
                                  /*iram_readable=*/false);
}

TEST(DmaStreaming, MatchesDumpsWithUnprotectedIram)
{
    expectStreamedDmaMatchesDumps(hw::PlatformConfig::nexus4(8 * MiB +
                                                             12 * KiB),
                                  /*iram_readable=*/true);
}

namespace
{

/** A SoC in the state the runner's bus-monitor verb finds a device:
 * dirty lines in the L2, and a fault schedule that duplicates a
 * writeback and nests a DMA burst inside another. */
struct BusVerbSoc
{
    BusVerbSoc() : soc(hw::PlatformConfig::tegra3(4 * MiB))
    {
        Rng rng(0xb05);
        // Known bytes where the DMA sweep's first burst starts.
        const auto head = randomBytes(rng, 64);
        soc.dram().writeCells(0, head.data(), head.size());
        soc.l2().cleanAllMasked();
        for (unsigned line = 0; line < 6; ++line) {
            const auto bytes = randomBytes(rng, CACHE_LINE_SIZE);
            soc.l2().write(DRAM_BASE + 1 * MiB + line * 4 * KiB,
                           bytes.data(), bytes.size());
        }
        fault::FaultSchedule schedule;
        fault::FaultSpec dup;
        dup.kind = fault::FaultKind::BusDuplicateWrite;
        dup.after = 2;
        dup.count = 2;
        fault::FaultSpec burst;
        burst.kind = fault::FaultKind::DmaBurst;
        burst.after = 4;
        burst.bytes = 4096;
        schedule.faults = {dup, burst};
        injector = std::make_unique<fault::FaultInjector>(schedule, 5);
        injector->arm(soc);
    }

    /** The verb's traffic: a masked clean, then a DMA sweep of DRAM. */
    void
    traffic()
    {
        soc.l2().cleanAllMasked();
        DmaAttack().sweep(soc, DRAM_BASE, soc.dram().size(),
                          [](std::span<const std::uint8_t>) {});
    }

    hw::Soc soc;
    std::unique_ptr<fault::FaultInjector> injector;
};

/** The last @p tail bytes of @p a, then the first @p head bytes of @p b. */
std::vector<std::uint8_t>
joint(const std::vector<std::uint8_t> &a, std::size_t tail,
      const std::vector<std::uint8_t> &b, std::size_t head)
{
    std::vector<std::uint8_t> out(a.end() - tail, a.end());
    out.insert(out.end(), b.begin(), b.begin() + head);
    return out;
}

} // namespace

TEST(BusProbeStreaming, InFlightMatchEqualsCapturedPayloads)
{
    // A first run with a capturing probe shows the stream; its seams
    // become the needles of an identical second run, in which the
    // runner's in-flight probe and a capturing probe watch together.
    std::vector<std::vector<std::uint8_t>> needles;
    {
        BusVerbSoc first;
        BusMonitorAttack capture(first.soc);
        capture.startCapture();
        first.traffic();
        ASSERT_EQ(first.injector->stats().busDuplicates, 2u);
        ASSERT_EQ(first.injector->stats().dmaBurstBytes, 4096u);
        const auto &trace = capture.monitor().trace();
        bool sawWritebackToBurst = false, sawDuplicate = false;
        for (std::size_t i = 0; i + 2 < trace.size(); ++i) {
            const auto &a = trace[i].data;
            const auto &b = trace[i + 1].data;
            const auto &c = trace[i + 2].data;
            // A writeback followed by a DMA burst (the nested fault
            // burst, or the sweep's first burst after the clean).
            if (trace[i].isWrite && !trace[i + 1].isWrite &&
                trace[i + 1].initiator == hw::BusInitiator::Dma &&
                !sawWritebackToBurst) {
                needles.push_back(joint(a, 8, b, 8));
                sawWritebackToBurst = true;
            }
            // A writeback and its duplicate: only there does a line's
            // tail meet its own head.
            if (trace[i].isWrite && trace[i + 1].isWrite &&
                trace[i].addr == trace[i + 1].addr && !sawDuplicate) {
                needles.push_back(joint(a, 16, b, 16));
                sawDuplicate = true;
            }
            // Three short writebacks in a row: a needle over all of b.
            if (trace[i].isWrite && trace[i + 1].isWrite &&
                trace[i + 2].isWrite && needles.size() < 6) {
                std::vector<std::uint8_t> three = joint(a, 4, b, b.size());
                three.insert(three.end(), c.begin(), c.begin() + 4);
                needles.push_back(three);
            }
        }
        ASSERT_TRUE(sawWritebackToBurst);
        ASSERT_TRUE(sawDuplicate);
        ASSERT_EQ(needles.size(), 6u);
        Rng rng(0xab5e);
        needles.push_back(randomBytes(rng, 16)); // absent
    }

    BusVerbSoc second;
    StreamMatcher crossed(needles);
    BusMonitorAttack capture(second.soc);
    BusMonitorAttack live(second.soc, crossed);
    capture.startCapture();
    live.startCapture();
    second.traffic();

    ASSERT_EQ(live.monitor().trace().size(),
              capture.monitor().trace().size());
    for (const hw::CapturedTransaction &txn : live.monitor().trace())
        EXPECT_TRUE(txn.data.empty());
    std::size_t found = 0;
    for (std::size_t i = 0; i < needles.size(); ++i) {
        const bool captured =
            capture.analyzeForSecret(needles[i], "needle").secretRecovered;
        EXPECT_EQ(crossed.found(i), captured) << "needle " << i;
        found += crossed.found(i) ? 1 : 0;
    }
    EXPECT_EQ(found, needles.size() - 1); // all but the absent one
}

namespace
{

/** Snapshot a locked tegra3 device under @p kind whose memory holds
 * the markers this appends to @p markers. */
std::shared_ptr<const DeviceSnapshot>
coldBootReadoutTemplate(DefenseKind kind,
                        std::vector<SecretMarker> &markers)
{
    SentryOptions options;
    options.placement = AesPlacement::LockedL2;
    options.defense = kind;
    Device device(hw::PlatformConfig::tegra3(4 * MiB), options);
    device.sentry().registerCryptoProviders();
    Kernel &kernel = device.kernel();
    Rng rng(0xc01db007);
    for (const bool sensitive : {true, false}) {
        Process &app = kernel.createProcess(sensitive ? "wallet" : "leaky");
        const Vma &heap =
            kernel.addVma(app, "heap", VmaType::Heap, 16 * PAGE_SIZE);
        const auto secret = randomBytes(rng, 16);
        for (std::size_t off = 0; off < heap.size; off += PAGE_SIZE)
            kernel.writeVirt(app, heap.base + off, secret.data(),
                             secret.size());
        if (sensitive)
            device.sentry().markSensitive(app);
        markers.push_back({app.name(), secret, sensitive});
    }
    kernel.lockScreen();

    // Markers around pages that stay Zero until a power loss decays
    // them toward 0xFF, which defers them: a tail of zeros in the Zero
    // page after a written one, a head of zeros in the Zero page before
    // one, 0x00/0xFF in the middle, and only 0x00 or 0xFF bytes. The
    // in-place grep has to compute a deferred page for some of them
    // and may skip it for the others.
    hw::Dram &dram = device.soc().dram();
    const std::size_t last = dram.size() / PAGE_SIZE - 1;
    for (const std::size_t page : {last - 23, last - 13})
        EXPECT_FALSE(dram.cells().pageIsPrivate(page)) << page;
    const auto plant = [&](const std::string &owner, std::size_t offset,
                           std::vector<std::uint8_t> bytes,
                           std::size_t written_from,
                           std::size_t written_to) {
        dram.writeCells(offset + written_from, bytes.data() + written_from,
                        written_to - written_from);
        markers.push_back({owner, std::move(bytes), true});
    };
    auto tail = randomBytes(rng, 14);
    tail.front() = 0x5a; // neither 0x00 nor 0xFF
    tail.insert(tail.end(), {0x00, 0x00});
    plant("zero-tail", (last - 23) * PAGE_SIZE - 14, tail, 0, 14);
    std::vector<std::uint8_t> head = {0x00, 0x00, 0x00};
    const auto headRest = randomBytes(rng, 13);
    head.insert(head.end(), headRest.begin(), headRest.end());
    plant("zero-head", (last - 12) * PAGE_SIZE - 3, head, 3, 16);
    auto middle = randomBytes(rng, 16);
    middle[7] = 0x00;
    middle[8] = 0xff;
    plant("ground-middle", (last - 5) * PAGE_SIZE + 100, middle, 0, 16);
    const auto longer = randomBytes(rng, PAGE_SIZE + 100);
    plant("longer-than-a-page", (last - 40) * PAGE_SIZE - 50, longer, 0,
          longer.size());
    markers.push_back({"all-0xff", std::vector<std::uint8_t>(16, 0xff),
                       true});
    markers.push_back({"all-0x00", std::vector<std::uint8_t>(16, 0x00),
                       false});
    markers.push_back({"ground-mix",
                       {0xff, 0xff, 0xff, 0xff, 0x00, 0xff, 0xff, 0xff},
                       true});
    markers.push_back({"absent", randomBytes(rng, 16), true});
    // 0x00 at both ends, across the seam after a Zero page: the byte
    // kernels filter its candidates on its inner bytes.
    auto zeroEnds = randomBytes(rng, 16);
    zeroEnds.front() = 0x00;
    zeroEnds.back() = 0x00;
    plant("zero-ends", (last - 30) * PAGE_SIZE - 1, zeroEnds, 1, 15);
    return device.snapshot();
}

} // namespace

TEST(ColdBootReadout, InPlaceGrepMatchesTheComputedDumps)
{
    // Under each backend, every order of os_reboot, cold_boot and
    // 2s_reset, each frozen or not. Two forks
    // of one template run the same resets: `lazy` is grepped in place
    // (checkDumps(soc), which skips the deferred pages it can rule out)
    // and never materialized, so its deferred pages meet the later
    // resets; `dumped` is grepped through checkDumps(dramRaw(),
    // iramRaw()), which computes every page. After each reset both must
    // score every marker the same (one checker per marker), and at the
    // end the lazy device's computed memory must equal the dumped one's.
    const ColdBootVariant VERBS[] = {ColdBootVariant::OsReboot,
                                     ColdBootVariant::DeviceReflash,
                                     ColdBootVariant::TwoSecondReset};
    std::size_t deferredAtReadout = 0, groundOnlyFound = 0,
                groundOnlyMissed = 0;
    for (const DefenseKind kind : {DefenseKind::Sentry, DefenseKind::Amnesia,
                                   DefenseKind::MemShield}) {
        std::vector<SecretMarker> markers;
        const auto snap = coldBootReadoutTemplate(kind, markers);
        SentryOptions options;
        options.placement = AesPlacement::LockedL2;
        options.defense = kind;
        Device lazy(hw::PlatformConfig::tegra3(4 * MiB), options);
        Device dumped(hw::PlatformConfig::tegra3(4 * MiB), options);
        std::array<int, 3> order = {0, 1, 2};
        do {
            for (unsigned frozen = 0; frozen < 8; ++frozen) {
                lazy.forkFrom(*snap);
                dumped.forkFrom(*snap);
                std::vector<std::unique_ptr<InvariantChecker>> lazyChecks,
                    dumpChecks;
                for (const SecretMarker &marker : markers) {
                    lazyChecks.push_back(std::make_unique<InvariantChecker>(
                        lazy.kernel(), lazy.sentry()));
                    lazyChecks.back()->addMarker(marker);
                    dumpChecks.push_back(std::make_unique<InvariantChecker>(
                        dumped.kernel(), dumped.sentry()));
                    dumpChecks.back()->addMarker(marker);
                }
                for (int i = 0; i < 3; ++i) {
                    const ColdBootAttack attack(
                        VERBS[order[i]], (frozen >> i & 1) ? -18.0 : 22.0);
                    attack.performReset(lazy.soc());
                    attack.performReset(dumped.soc());
                    const hw::CowBytes &cells = lazy.soc().dram().cells();
                    for (std::size_t page = 0; page < cells.pageCount();
                         ++page)
                        deferredAtReadout += cells.pageIsDeferred(page);

                    for (std::size_t m = 0; m < markers.size(); ++m) {
                        // Grep first, compute the pages second.
                        const DumpLeaks inPlace =
                            lazyChecks[m]->checkDumps(lazy.soc());
                        const DumpLeaks fromDumps = dumpChecks[m]->checkDumps(
                            dumped.soc().dramRaw(), dumped.soc().iramRaw());
                        const std::string where =
                            std::string(defenseKindName(kind)) + " order " +
                            std::to_string(order[0]) +
                            std::to_string(order[1]) +
                            std::to_string(order[2]) + " frozen " +
                            std::to_string(frozen) + " reset " +
                            std::to_string(i) + " " + markers[m].owner;
                        EXPECT_EQ(inPlace.sensitiveProbed,
                                  fromDumps.sensitiveProbed)
                            << where;
                        EXPECT_EQ(inPlace.sensitiveLeaked,
                                  fromDumps.sensitiveLeaked)
                            << where;
                        EXPECT_EQ(inPlace.nonSensitiveLeaks,
                                  fromDumps.nonSensitiveLeaks)
                            << where;
                        EXPECT_EQ(inPlace.firstLeakedOwner,
                                  fromDumps.firstLeakedOwner)
                            << where;
                        if (markers[m].owner == "all-0xff" ||
                            markers[m].owner == "ground-mix")
                            (fromDumps.sensitiveLeaked != 0
                                 ? groundOnlyFound
                                 : groundOnlyMissed)++;
                    }
                }
                EXPECT_TRUE(std::ranges::equal(lazy.soc().dramRaw(),
                                               dumped.soc().dramRaw()));
                EXPECT_TRUE(std::ranges::equal(lazy.soc().iramRaw(),
                                               dumped.soc().iramRaw()));
            }
        } while (std::next_permutation(order.begin(), order.end()));
    }
    // The readouts met deferred pages, and the markers of 0x00 and 0xFF
    // bytes only were found after some resets and missed after others.
    EXPECT_GT(deferredAtReadout, 0u);
    EXPECT_GT(groundOnlyFound, 0u);
    EXPECT_GT(groundOnlyMissed, 0u);
}
