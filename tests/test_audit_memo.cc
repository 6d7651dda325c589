/**
 * @file
 * Incremental-audit differential tests (label: fuzz).
 *
 * InvariantChecker::checkLive() greps DRAM only where it changed since
 * each needle was last found absent (hw::CowBytes write stamps). These
 * tests drive a device through every kind of DRAM writer the simulator
 * has — bus writebacks (the background pager's included), DMA writes,
 * uncached writes with every way locked, Rowhammer flips, fault-
 * injector bit flips and duplicate bus writes, a lockdown glitch, and a
 * fork — and after every step compare the memoised audit with a fresh
 * SecurityAudit::run() that has no memo (the full-scan reference). The
 * verdict and the first failure must be identical.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/rng.hh"
#include "core/device.hh"
#include "core/invariant_checker.hh"
#include "core/security_audit.hh"
#include "fault/fault_injector.hh"

using namespace sentry;
using namespace sentry::core;

namespace
{

constexpr std::size_t FG_PAGES = 24;
constexpr std::size_t BG_PAGES = 16;
/** Unmapped frames the DMA, uncached and Rowhammer writers aim at:
 * wide enough to hold a victim row, its aggressor and the aggressor's
 * other neighbour (see hammerScratch). */
constexpr std::size_t SCRATCH_FRAMES = 48;

const auto FG_SECRET = fromHex("f0e5ec2e7f0e5ec2");
const auto BG_SECRET = fromHex("b65ec2e7b65ec2e7");
const auto GAME_SECRET = fromHex("9a3e9a3e9a3e9a3e");
/** Rowhammer target: eight bytes around the seam site of the victim
 * row; a flip of bit b of byte HAMMER_SITE turns it into the marker
 * registered for b. */
const auto HAMMER_BASE = fromHex("4a4b4c4d4e4f5051");
constexpr std::size_t HAMMER_SITE = 4;

fault::FaultSchedule
schedule()
{
    fault::FaultSchedule sched;
    const auto add = [&](fault::FaultKind kind, std::uint64_t after,
                         std::uint64_t every, unsigned count) {
        fault::FaultSpec spec;
        spec.kind = kind;
        spec.after = after;
        spec.every = every;
        spec.count = count;
        sched.faults.push_back(spec);
    };
    add(fault::FaultKind::DramBitFlip, 40, 97, 2);
    add(fault::FaultKind::BusDuplicateWrite, 25, 61, 1);
    add(fault::FaultKind::LockdownGlitch, 300, 0, 1);
    return sched;
}

class AuditMemoDiff : public testing::Test
{
  protected:
    AuditMemoDiff()
        : device_(hw::PlatformConfig::tegra3(4 * MiB), options()),
          checker_(device_.kernel(), device_.sentry()),
          injector_(schedule(), 0x5eed)
    {
        os::Kernel &kernel = device_.kernel();
        kernel.setPin("1111");
        spawn("mail", FG_PAGES, FG_SECRET, true, false);
        spawn("sync", BG_PAGES, BG_SECRET, true, true);
        spawn("game", 8, GAME_SECRET, false, false);
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::vector<std::uint8_t> marker = HAMMER_BASE;
            marker[HAMMER_SITE] ^= static_cast<std::uint8_t>(1u << bit);
            addMarker({"hammer" + std::to_string(bit), marker, true});
        }
        scratch_ = kernel.allocator().allocContiguous(SCRATCH_FRAMES);
        start_ = device_.snapshot();
    }

    static SentryOptions
    options()
    {
        SentryOptions options;
        options.placement = AesPlacement::LockedL2;
        options.backgroundMode = true;
        options.pagerWays = 1; // tiny pool: constant pager writebacks
        return options;
    }

    void
    addMarker(const SecretMarker &marker)
    {
        checker_.addMarker(marker);
        if (marker.sensitive)
            sensitive_.push_back(marker.bytes);
    }

    void
    spawn(const std::string &name, std::size_t pages,
          const std::vector<std::uint8_t> &secret, bool sensitive,
          bool background)
    {
        os::Kernel &kernel = device_.kernel();
        os::Process &process = kernel.createProcess(name);
        const os::Vma &heap = kernel.addVma(process, "heap",
                                            os::VmaType::Heap,
                                            pages * PAGE_SIZE);
        for (std::size_t page = 0; page < pages; ++page)
            kernel.writeVirt(process, heap.base + page * PAGE_SIZE,
                             secret.data(), secret.size());
        if (sensitive)
            device_.sentry().markSensitive(process);
        if (background)
            device_.sentry().markBackground(process);
        addMarker({name, secret, sensitive});
    }

    os::Process &
    process(const std::string &name)
    {
        for (const auto &process : device_.kernel().processes()) {
            if (process->name() == name)
                return *process;
        }
        throw std::runtime_error("no process " + name);
    }

    VirtAddr
    heapPage(const std::string &name, std::size_t page)
    {
        return process(name).addressSpace().vmas().front().base +
               page * PAGE_SIZE;
    }

    /** A scratch address @p back bytes before a page seam. */
    PhysAddr
    seamAddr(std::size_t seam, std::size_t back) const
    {
        return scratch_ + seam * PAGE_SIZE - back;
    }

    void
    dmaWrite(PhysAddr addr, const std::vector<std::uint8_t> &bytes)
    {
        ASSERT_EQ(device_.soc().dma().writeMemory(addr, bytes.data(),
                                                  bytes.size()),
                  hw::DmaStatus::Ok);
    }

    /** A CPU write that misses an L2 whose every way is locked, so it
     * goes straight to DRAM. */
    void
    uncachedWrite(PhysAddr addr, const std::vector<std::uint8_t> &bytes)
    {
        hw::Soc &soc = device_.soc();
        hw::SecureWorldGuard guard(soc.trustzone());
        const std::uint32_t saved = soc.l2().lockdownReg();
        ASSERT_TRUE(soc.l2().writeLockdownReg((1u << soc.l2().ways()) - 1));
        const std::uint64_t before = soc.l2().stats().uncachedAccesses;
        soc.memory().write(addr, bytes.data(), bytes.size());
        EXPECT_GT(soc.l2().stats().uncachedAccesses, before);
        ASSERT_TRUE(soc.l2().writeLockdownReg(saved));
    }

    /**
     * Hammer the scratch row whose middle is a page seam, with every
     * site of its neighbours flipping. The eight bytes around that
     * seam's site are HAMMER_BASE beforehand, so afterwards they are
     * exactly one of the hammer markers.
     */
    void
    hammerScratch()
    {
        hw::Dram &dram = device_.soc().dram();
        const hw::DramGeometry &geom = dram.geometry();
        const std::size_t victim =
            alignUp(scratch_ - DRAM_BASE, geom.rowBytes);
        const std::size_t seamSite = victim + PAGE_SIZE;
        dmaWrite(DRAM_BASE + seamSite - HAMMER_SITE, HAMMER_BASE);
        const PhysAddr aggressor = victim + geom.banks * geom.rowBytes;
        hw::DisturbParams params;
        params.flipChance = 1.0;
        dram.recordActivations(aggressor, 2 * params.activationThreshold);
        const auto flips =
            dram.disturbAdjacentRows(aggressor, rng_, params);
        bool hitSeam = false;
        for (const hw::FlippedBit &flip : flips) {
            ASSERT_GE(flip.offset + DRAM_BASE, scratch_);
            ASSERT_LT(flip.offset + DRAM_BASE,
                      scratch_ + SCRATCH_FRAMES * PAGE_SIZE);
            hitSeam = hitSeam || flip.offset == seamSite;
        }
        EXPECT_TRUE(hitSeam);
        dram.refreshRows();
    }

    void
    eraseScratch()
    {
        dmaWrite(scratch_,
                 std::vector<std::uint8_t>(SCRATCH_FRAMES * PAGE_SIZE, 0));
    }

    /** Run the memoised and the full audit, expect them to agree (ok,
     * and the first failure's text), @return the memoised verdict. */
    bool
    auditsAgree(const std::string &where)
    {
        const CheckOutcome live = checker_.checkLive();
        const AuditReport full =
            SecurityAudit(device_.kernel(), device_.sentry())
                .run(sensitive_);
        std::string fullDetail;
        for (const AuditFinding &finding : full.findings) {
            if (!finding.passed) {
                fullDetail = finding.check + " — " + finding.detail;
                break;
            }
        }
        EXPECT_EQ(live.ok, full.allPassed()) << where << "\n"
                                              << full.summary();
        EXPECT_EQ(live.detail, fullDetail) << where;
        return live.ok;
    }

    Device device_;
    InvariantChecker checker_;
    fault::FaultInjector injector_;
    std::vector<std::vector<std::uint8_t>> sensitive_;
    PhysAddr scratch_ = 0;
    std::shared_ptr<const DeviceSnapshot> start_;
    Rng rng_{1};
};

} // namespace

TEST_F(AuditMemoDiff, SeamStraddlingLeaksFailExactlyWhereTheFullAuditDoes)
{
    device_.kernel().lockScreen();
    ASSERT_TRUE(auditsAgree("locked, nothing planted"));
    const auto key = device_.sentry().keys().volatileKey();
    const std::vector<std::uint8_t> keyBytes(key.begin(), key.end());

    // Each writer alone carries a sensitive needle across a page seam
    // of memory the audits have already found clean.
    dmaWrite(seamAddr(3, 5), FG_SECRET);
    EXPECT_FALSE(auditsAgree("marker via DMA"));
    eraseScratch();
    EXPECT_TRUE(auditsAgree("erased"));

    dmaWrite(seamAddr(7, 9), keyBytes);
    EXPECT_FALSE(auditsAgree("key via DMA"));
    eraseScratch();
    EXPECT_TRUE(auditsAgree("erased"));

    uncachedWrite(seamAddr(11, 3), BG_SECRET);
    EXPECT_FALSE(auditsAgree("marker via uncached write"));
    eraseScratch();
    EXPECT_TRUE(auditsAgree("erased"));

    hammerScratch();
    EXPECT_FALSE(auditsAgree("marker via Rowhammer flip"));
    eraseScratch();
    EXPECT_TRUE(auditsAgree("erased"));
}

TEST_F(AuditMemoDiff, RandomWritersKeepTheMemoisedVerdictExact)
{
    injector_.arm(device_.soc());
    const std::vector<std::vector<std::uint8_t>> plants = {
        FG_SECRET, BG_SECRET, GAME_SECRET};
    unsigned passed = 0, failed = 0;
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        rng_ = Rng(seed);
        device_.forkFrom(*start_);
        bool poweredOff = false;
        for (int step = 0; step < 120; ++step) {
            injector_.beginStep();
            if (poweredOff) {
                // The stack above the cells did not survive: rewind.
                device_.forkFrom(*start_);
                poweredOff = false;
            }
            os::Kernel &kernel = device_.kernel();
            const os::PowerState state = kernel.powerState();
            const bool awake = state == os::PowerState::Awake;
            switch (rng_.below(12)) {
              case 0:
              case 1:
                if (awake && rng_.chance(0.7))
                    kernel.lockScreen();
                else if (awake)
                    kernel.suspendToRam(rng_.uniform() * 50.0);
                else if (state == os::PowerState::Suspended)
                    kernel.wakeUp(os::WakeReason::Notification);
                else
                    ASSERT_TRUE(kernel.unlockScreen("1111"));
                break;
              case 2:
                if (awake)
                    kernel.touchRange(process("mail"),
                                      heapPage("mail", rng_.below(FG_PAGES)),
                                      PAGE_SIZE);
                break;
              case 3:
                // The background app runs locked too: pager writebacks.
                if (state != os::PowerState::Suspended)
                    kernel.touchRange(
                        process("sync"),
                        heapPage("sync", rng_.below(BG_PAGES - 1)),
                        2 * PAGE_SIZE);
                break;
              case 4:
                if (awake)
                    kernel.writeVirt(process("mail"),
                                     heapPage("mail", rng_.below(FG_PAGES)),
                                     FG_SECRET.data(), FG_SECRET.size());
                break;
              case 5: {
                // DMA: random bytes, or a planted secret over a seam.
                const std::size_t seam = 1 + rng_.below(SCRATCH_FRAMES - 1);
                if (rng_.chance(0.5)) {
                    const auto &secret = plants[rng_.below(plants.size())];
                    dmaWrite(seamAddr(seam, 1 + rng_.below(secret.size() - 1)),
                             secret);
                } else {
                    std::vector<std::uint8_t> noise(1 + rng_.below(300));
                    for (auto &byte : noise)
                        byte = static_cast<std::uint8_t>(rng_.next64());
                    dmaWrite(seamAddr(seam, rng_.below(noise.size())), noise);
                }
                break;
              }
              case 6: {
                const auto &secret = plants[rng_.below(plants.size())];
                uncachedWrite(
                    seamAddr(1 + rng_.below(SCRATCH_FRAMES - 1),
                             1 + rng_.below(secret.size() - 1)),
                    secret);
                break;
              }
              case 7:
                hammerScratch();
                break;
              case 8:
                eraseScratch();
                break;
              case 9:
                device_.soc().l2().flushAllMasked();
                break;
              case 10:
                // Power event: decay stamps every page it rewrites.
                if (rng_.chance(0.3)) {
                    device_.soc().powerCycle(rng_.chance(0.5) ? 0.007 : 2.0);
                    poweredOff = true;
                }
                break;
              default:
                // Rewind: every page the fork rebinds is stamped anew.
                if (rng_.chance(0.2))
                    device_.forkFrom(*start_);
                break;
            }
            if (auditsAgree("seed " + std::to_string(seed) + " step " +
                            std::to_string(step)))
                ++passed;
            else
                ++failed;
            if (HasFailure())
                return;
        }
    }
    // Both verdicts must actually have been exercised, and every fault
    // kind must have fired.
    EXPECT_GT(passed, 0u);
    EXPECT_GT(failed, 0u);
    std::set<fault::FaultKind> fired;
    for (const fault::FiringRecord &firing : injector_.firings())
        fired.insert(firing.kind);
    EXPECT_EQ(fired.size(), schedule().faults.size());
}
