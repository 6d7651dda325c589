/**
 * @file
 * Snapshot/fork fidelity tests (label: snapshot).
 *
 * The boot-once / fan-out pattern is only sound if a forked device is
 * indistinguishable from a cold-booted one: same memory image, same
 * simulated clock, same trace-event stream, same crypto answers. These
 * tests pin that down with whole-memory SHA-256 digests and
 * CounterSink totals, and cover the COW semantics at device level:
 * sibling isolation, snapshot immutability, re-forking one target, and
 * dirty-page accounting. The RecycledFork twins compare a re-forked
 * target (which restores only what it changed) with a freshly
 * constructed one (which restores everything).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/app_profile.hh"
#include "apps/synthetic_app.hh"
#include "common/bytes.hh"
#include "common/trace_engine.hh"
#include "core/device.hh"
#include "core/invariant_checker.hh"
#include "crypto/sha256.hh"
#include "fleet/device_runner.hh"
#include "fleet/fleet.hh"
#include "fork_capture.hh"
#include "gauntlet.hh"

using namespace sentry;
using namespace sentry::core;

namespace
{

const auto SECRET = fromHex("5ec2e7ba5eba115ec2e7ba5eba11f00d");

hw::PlatformConfig
config()
{
    return hw::PlatformConfig::nexus4(64 * MiB);
}

/** SHA-256 over DRAM + iRAM + the simulated clock: two devices with
 * equal digests have bit-identical memory state and timing. */
crypto::Sha256Digest
deviceDigest(Device &device)
{
    crypto::Sha256 hasher;
    hasher.update(device.soc().dramRaw());
    hasher.update(device.soc().iramRaw());
    const std::uint64_t now = device.soc().clock().now();
    hasher.update({reinterpret_cast<const std::uint8_t *>(&now),
                   sizeof now});
    return hasher.finish();
}

/** Everything the parity tests compare between cold and forked runs. */
struct RunRecord
{
    crypto::Sha256Digest digest;
    std::string counters; //!< CounterSink totals, stable rendering
    std::uint64_t faultsServiced = 0;
    std::uint64_t bytesDecryptedOnDemand = 0;
    std::vector<std::uint8_t> secretBack;
};

/** Warm phase: create the app, fill it with data, lock the screen. */
apps::SyntheticApp
warmUp(Device &device)
{
    apps::SyntheticApp app(device.kernel(),
                           apps::AppProfile::byName("Contacts"));
    app.populate(SECRET);
    device.sentry().markSensitive(app.process());
    device.kernel().lockScreen();
    return app;
}

/** Measured phase: unlock, resume, and read the secret back. */
RunRecord
unlockAndResume(Device &device, apps::SyntheticApp &app,
                probe::CounterSink &sink)
{
    device.kernel().unlockScreen("0000");
    app.resume();

    RunRecord record;
    record.secretBack.resize(SECRET.size());
    device.kernel().readVirt(app.process(), app.heapBase() + 64,
                             record.secretBack.data(), SECRET.size());
    record.counters = sink.counters().summary();
    record.faultsServiced = device.sentry().stats().faultsServiced;
    record.bytesDecryptedOnDemand =
        device.sentry().stats().bytesDecryptedOnDemand;
    record.digest = deviceDigest(device);
    return record;
}

/** A fleet-scale device's work on an unlocked device: spawn a
 * sensitive app, plant a secret in each page of its @p heap_bytes heap
 * and read every page back twice, so writes, fills and read misses
 * land in the L2. */
void
spawnAndTouch(Device &device, std::size_t heap_bytes)
{
    os::Kernel &kernel = device.kernel();
    os::Process &process = kernel.createProcess("app");
    const os::Vma &heap =
        kernel.addVma(process, "heap", os::VmaType::Heap, heap_bytes);
    for (std::size_t off = 0; off < heap.size; off += PAGE_SIZE)
        kernel.writeVirt(process, heap.base + off + 64, SECRET.data(),
                         SECRET.size());
    device.sentry().markSensitive(process);
    kernel.touchRange(process, heap.base, heap.size);
    device.soc().clock().advanceSeconds(0.005);
    kernel.touchRange(process, heap.base, heap.size / 2);
}

/** @return @p device's fuse secret, read from the secure world, or
 * nullopt on a platform without one. */
std::optional<std::array<std::uint8_t, 32>>
fuseOf(Device &device)
{
    hw::TrustZone &tz = device.soc().trustzone();
    const hw::SecureWorldGuard secure(tz);
    std::array<std::uint8_t, 32> fuse{};
    if (!tz.readFuse(fuse))
        return std::nullopt;
    return fuse;
}

/**
 * The delta-restore twin. @p target has run since its last fork, so
 * its L2, memories and component states hold changes the next fork
 * must undo. Re-fork it from @p snap next to a freshly constructed
 * device forked from the same snapshot (the full restore path). The
 * fresh device has the target's platform but another seed, as a
 * replay of another fleet index does, so state a fork fails to copy
 * keeps each device's own construction-time value. The two must match
 * right after the fork. Both are then reseeded to the fresh device's
 * seed, as the fleet runner reseeds a recycled device to the index it
 * runs, so their fuses must match too, and they must match again after
 * both run a fleet-scale device's work, and again after both lock
 * (page crypto with the forked keys).
 */
void
expectRecycledForkMatchesFresh(Device &target, const DeviceSnapshot &snap,
                               const SentryOptions &options = {})
{
    target.forkFrom(snap);
    hw::PlatformConfig freshConfig = target.soc().config();
    freshConfig.seed ^= 0x5eed;
    Device fresh(freshConfig, options);
    fresh.forkFrom(snap);
    EXPECT_TRUE(test::captureFork(target) == test::captureFork(fresh))
        << "right after the fork";
    target.soc().reseed(freshConfig.seed);
    fresh.soc().reseed(freshConfig.seed);
    EXPECT_EQ(fuseOf(target), fuseOf(fresh)) << "after the reseed";
    spawnAndTouch(target, 16 * KiB);
    spawnAndTouch(fresh, 16 * KiB);
    EXPECT_TRUE(test::captureFork(target) == test::captureFork(fresh))
        << "after the next device's work";
    target.kernel().lockScreen();
    fresh.kernel().lockScreen();
    EXPECT_TRUE(test::captureFork(target) == test::captureFork(fresh))
        << "after locking";
}

/** The CATT row plan the fleet runner installs for the rowhammer
 * verb: the top quarter of each bank's rows, past one guard row, is
 * the attacker's. */
os::RowPartition
cattPlan(Device &device)
{
    const hw::Dram &dram = device.soc().dram();
    os::RowPartition plan;
    plan.rowBytes = dram.geometry().rowBytes;
    plan.banks = dram.geometry().banks;
    plan.victimRowLimit = dram.geometry().rowsPerBank(dram.size()) * 3 / 4;
    plan.guardRows = 1;
    plan.geomBase = DRAM_BASE;
    return plan;
}

/** Warm @p device for the twins: crypto providers registered and a
 * 2 MiB heap written through the cache, so the L2 is full of valid
 * dirty lines that a re-fork must restore. */
void
warm(Device &device)
{
    device.sentry().registerCryptoProviders();
    os::Kernel &kernel = device.kernel();
    os::Process &process = kernel.createProcess("warm");
    const os::Vma &heap =
        kernel.addVma(process, "heap", os::VmaType::Heap, 2 * MiB);
    const std::vector<std::uint8_t> fill(heap.size, 0x3c);
    kernel.writeVirt(process, heap.base, fill.data(), fill.size());
}

std::shared_ptr<const DeviceSnapshot>
warmTemplate(const SentryOptions &options = {})
{
    Device origin(config(), options);
    warm(origin);
    return origin.snapshot();
}

/** Four lines in four consecutive L2 sets, one per single-line
 * operation the twins below apply. */
constexpr PhysAddr WRITE_HIT_LINE = DRAM_BASE + 8 * MiB;
constexpr PhysAddr READ_MISS_LINE = WRITE_HIT_LINE + CACHE_LINE_SIZE;
constexpr PhysAddr CLEAN_LINE = WRITE_HIT_LINE + 2 * CACHE_LINE_SIZE;
constexpr PhysAddr INVALIDATE_LINE = WRITE_HIT_LINE + 3 * CACHE_LINE_SIZE;

/** A warm template whose L2 is clean except CLEAN_LINE, with
 * READ_MISS_LINE absent and the other lines resident. An operation on
 * a fork then changes each set itself, not by writing back a dirty
 * line on the way. */
std::shared_ptr<const DeviceSnapshot>
lineTemplate()
{
    Device origin(config());
    warm(origin);
    hw::L2Cache &l2 = origin.soc().l2();
    l2.cleanAllMasked();
    std::uint8_t byte = 0x42;
    l2.read(WRITE_HIT_LINE, &byte, 1);
    l2.invalidateRange(READ_MISS_LINE, 1);
    l2.write(CLEAN_LINE, &byte, 1);
    l2.read(INVALIDATE_LINE, &byte, 1);
    return origin.snapshot();
}

/** A warm template whose unmasked ways hold two lines, WRITE_HIT_LINE
 * (clean) and CLEAN_LINE (dirty), in two of the L2's sets: a masked
 * flush on a fork invalidates lines in those sets only. */
std::shared_ptr<const DeviceSnapshot>
sparseTemplate()
{
    Device origin(config());
    warm(origin);
    hw::L2Cache &l2 = origin.soc().l2();
    l2.flushAllMasked();
    std::uint8_t byte = 0x42;
    l2.read(WRITE_HIT_LINE, &byte, 1);
    l2.write(CLEAN_LINE, &byte, 1);
    return origin.snapshot();
}

/** The cold-boot reference: boot, warm, unlock — all on one device. */
RunRecord
coldRun(SentryOptions options = {})
{
    Device device(config(), options);
    apps::SyntheticApp app = warmUp(device);
    probe::CounterSink sink;
    sink.attach(device.soc().trace());
    return unlockAndResume(device, app, sink);
}

} // namespace

TEST(SnapshotFork, ForkAfterBootMatchesColdBoot)
{
    // Template: boot and checkpoint immediately.
    Device origin(config());
    const auto snap = origin.snapshot();

    // Fork a fresh target from the post-boot image and run the whole
    // workload on it.
    Device fork(config());
    fork.forkFrom(*snap);
    apps::SyntheticApp app = warmUp(fork);
    probe::CounterSink sink;
    sink.attach(fork.soc().trace());
    const RunRecord forked = unlockAndResume(fork, app, sink);

    const RunRecord cold = coldRun();
    EXPECT_EQ(forked.digest, cold.digest);
    EXPECT_EQ(forked.counters, cold.counters);
    EXPECT_EQ(forked.secretBack, SECRET);
}

TEST(SnapshotFork, ForkAfterLockMatchesColdUnlock)
{
    // Template: warm through encrypt-on-lock, then checkpoint.
    Device origin(config());
    apps::SyntheticApp originApp = warmUp(origin);
    const auto snap = origin.snapshot();

    // Forked run: only the unlock/resume phase executes post-fork.
    Device fork(config());
    fork.forkFrom(*snap);
    os::Process *process = fork.kernel().processes().front().get();
    apps::SyntheticApp app(fork.kernel(), *process);
    probe::CounterSink sink;
    sink.attach(fork.soc().trace());
    const RunRecord forked = unlockAndResume(fork, app, sink);

    const RunRecord cold = coldRun();
    EXPECT_EQ(forked.digest, cold.digest);
    EXPECT_EQ(forked.counters, cold.counters);
    EXPECT_EQ(forked.faultsServiced, cold.faultsServiced);
    EXPECT_EQ(forked.bytesDecryptedOnDemand,
              cold.bytesDecryptedOnDemand);
    EXPECT_EQ(forked.secretBack, SECRET);
}

TEST(SnapshotFork, LockedSecretStaysEncryptedAcrossFork)
{
    Device origin(config());
    apps::SyntheticApp originApp = warmUp(origin);
    const auto snap = origin.snapshot();

    Device fork(config());
    fork.forkFrom(*snap);
    // The fork inherits the locked state: no cleartext in DRAM until
    // the PIN unlocks it.
    EXPECT_FALSE(fork.soc().dram().cells().contains(SECRET));
    os::Process *process = fork.kernel().processes().front().get();
    apps::SyntheticApp app(fork.kernel(), *process);
    fork.kernel().unlockScreen("0000");
    app.resume();
    std::vector<std::uint8_t> back(SECRET.size());
    fork.kernel().readVirt(app.process(), app.heapBase() + 64,
                           back.data(), SECRET.size());
    EXPECT_EQ(back, SECRET);
}

TEST(SnapshotFork, CryptoKnownAnswerHoldsOnFork)
{
    // SP 800-38A F.2.1 CBC-AES128, first block — run through the
    // forked device's crypto API so a fork-time corruption of the AES
    // state (key schedule, iRAM working set) fails against NIST, not
    // against our own output.
    Device origin(config());
    origin.sentry().registerCryptoProviders();
    const auto snap = origin.snapshot();
    Device fork(config());
    fork.forkFrom(*snap); // re-registers providers on the fresh target

    const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    const auto iv = fromHex("000102030405060708090a0b0c0d0e0f");
    const auto plaintext = fromHex("6bc1bee22e409f96e93d7e117393172a");
    const auto expect = fromHex("7649abac8119b246cee98e9b12e9197d");

    auto cipher = fork.kernel().cryptoApi().allocCipher("aes", key);
    std::vector<std::uint8_t> buf = plaintext;
    crypto::Iv ivArr;
    std::memcpy(ivArr.data(), iv.data(), ivArr.size());
    cipher->cbcEncrypt(ivArr, buf);
    EXPECT_EQ(buf, expect);
}

TEST(SnapshotFork, SiblingForksAreIsolated)
{
    Device origin(config());
    apps::SyntheticApp originApp = warmUp(origin);
    const auto snap = origin.snapshot();

    // Left sibling runs the workload; right sibling stays untouched.
    Device left(config());
    left.forkFrom(*snap);
    Device right(config());
    right.forkFrom(*snap);
    const crypto::Sha256Digest rightBefore = deviceDigest(right);

    os::Process *process = left.kernel().processes().front().get();
    apps::SyntheticApp app(left.kernel(), *process);
    left.kernel().unlockScreen("0000");
    app.resume();

    // Right sibling's state is untouched by left's writes, and still
    // equals a brand-new fork of the same snapshot.
    EXPECT_EQ(deviceDigest(right), rightBefore);
    Device fresh(config());
    fresh.forkFrom(*snap);
    EXPECT_EQ(deviceDigest(fresh), rightBefore);
}

TEST(SnapshotFork, SnapshotSurvivesSourceMutation)
{
    Device origin(config());
    apps::SyntheticApp originApp = warmUp(origin);
    const auto snap = origin.snapshot();

    Device before(config());
    before.forkFrom(*snap);
    const crypto::Sha256Digest expected = deviceDigest(before);

    // Mutate the source heavily after the checkpoint.
    origin.kernel().unlockScreen("0000");
    originApp.resume();
    originApp.runScript();

    Device after(config());
    after.forkFrom(*snap);
    EXPECT_EQ(deviceDigest(after), expected);
}

TEST(SnapshotFork, ReForkingOneTargetRepeatsExactly)
{
    Device origin(config());
    apps::SyntheticApp originApp = warmUp(origin);
    const auto snap = origin.snapshot();

    Device target(config());
    crypto::Sha256Digest first{};
    for (int round = 0; round < 3; ++round) {
        target.forkFrom(*snap);
        os::Process *process =
            target.kernel().processes().front().get();
        apps::SyntheticApp app(target.kernel(), *process);
        target.kernel().unlockScreen("0000");
        app.resume();
        const crypto::Sha256Digest digest = deviceDigest(target);
        if (round == 0)
            first = digest;
        else
            EXPECT_EQ(digest, first) << "round " << round;
    }
}

TEST(SnapshotFork, DirtyPagesTrackForkWrites)
{
    Device origin(config());
    apps::SyntheticApp originApp = warmUp(origin);
    const auto snap = origin.snapshot();

    Device fork(config());
    fork.forkFrom(*snap);
    EXPECT_EQ(fork.soc().dram().dirtyPages(), 0u);

    os::Process *process = fork.kernel().processes().front().get();
    apps::SyntheticApp app(fork.kernel(), *process);
    fork.kernel().unlockScreen("0000");
    app.resume();

    // Resume decrypts the resume set in place: those DRAM pages (and
    // only a fork-local fraction of the model) privatize.
    const std::size_t dirty = fork.soc().dram().dirtyPages();
    EXPECT_GE(dirty, app.profile().resumeSetBytes / PAGE_SIZE);
    EXPECT_LT(dirty, fork.soc().dram().size() / PAGE_SIZE / 2);
}

namespace
{

/** Collects every DRAM page a traced cell write lands on. */
class DramWriteRecorder : public probe::Subscriber
{
  public:
    void
    onMemAccess(probe::MemAccess &event) override
    {
        if (event.device != probe::MemAccess::Device::Dram ||
            !event.isWrite || event.len == 0)
            return;
        for (std::size_t page = event.offset / PAGE_SIZE;
             page <= (event.offset + event.len - 1) / PAGE_SIZE; ++page)
            pages.insert(page);
    }

    std::set<std::size_t> pages;
};

} // namespace

TEST(SnapshotFork, AuditsPrivatizeOnlyThePagesWritten)
{
    // A fleet device forked from its template: the audits, the dump
    // check and the Sentry set-up read DRAM in place, so the dirty-page
    // count is exactly the set of pages the device wrote.
    const auto platform = hw::PlatformConfig::tegra3(4 * MiB);
    SentryOptions options;
    options.placement = AesPlacement::LockedL2;
    options.pagerWays = 2;
    Device origin(platform, options);
    origin.sentry().registerCryptoProviders();
    const auto snap = origin.snapshot();

    Device fork(platform, options);
    fork.forkFrom(*snap);
    ASSERT_EQ(fork.soc().dram().dirtyPages(), 0u);
    DramWriteRecorder recorder;
    fork.soc().trace().subscribe(&recorder,
                                 probe::maskOf(probe::TraceKind::MemAccess));

    constexpr std::size_t TOUCHED = 12;
    os::Kernel &kernel = fork.kernel();
    os::Process &process = kernel.createProcess("app");
    const os::Vma &heap = kernel.addVma(process, "heap", os::VmaType::Heap,
                                        4 * TOUCHED * PAGE_SIZE);
    for (std::size_t page = 0; page < TOUCHED; ++page)
        kernel.writeVirt(process, heap.base + page * PAGE_SIZE,
                         SECRET.data(), SECRET.size());
    fork.sentry().markSensitive(process);
    InvariantChecker checker(kernel, fork.sentry());
    checker.addMarker({"app", SECRET, true});
    for (int audit = 0; audit < 3; ++audit)
        EXPECT_TRUE(checker.checkLive().ok);
    kernel.lockScreen();
    for (int audit = 0; audit < 3; ++audit)
        EXPECT_TRUE(checker.checkLive().ok);
    EXPECT_EQ(checker.checkDumps(fork.soc()).sensitiveLeaked, 0u);
    fork.soc().trace().unsubscribe(&recorder);

    EXPECT_GE(recorder.pages.size(), TOUCHED);
    EXPECT_EQ(fork.soc().dram().dirtyPages(), recorder.pages.size());
    EXPECT_LT(recorder.pages.size(), fork.soc().dram().size() / PAGE_SIZE / 8);
}

TEST(SnapshotFork, BackgroundPagerStateForksFaithfully)
{
    SentryOptions options;
    options.backgroundMode = true;
    options.pagerWays = 2;
    const auto platform = hw::PlatformConfig::tegra3(64 * MiB);

    auto runBackground = [](Device &device, bool fresh_app) {
        os::Process *process = nullptr;
        if (fresh_app) {
            process = &device.kernel().createProcess("bg");
            device.kernel().addVma(*process, "heap", os::VmaType::Heap,
                                   2 * MiB);
            std::vector<std::uint8_t> page(PAGE_SIZE, 0x5a);
            const os::Vma &vma =
                process->addressSpace().vmas().front();
            for (std::size_t off = 0; off < vma.size; off += PAGE_SIZE)
                device.kernel().writeVirt(*process, vma.base + off,
                                          page.data(), PAGE_SIZE);
            device.sentry().markSensitive(*process);
            device.sentry().markBackground(*process);
            device.kernel().lockScreen();
        } else {
            process = device.kernel().processes().front().get();
        }
        // Touch pages while locked: the pager pages them through the
        // locked way (page-ins + evictions once frames fill).
        const os::Vma &vma = process->addressSpace().vmas().front();
        device.kernel().touchRange(*process, vma.base, 1 * MiB);
    };

    // Template: background app mid-flight, pager frames resident.
    Device origin(platform, options);
    runBackground(origin, true);
    ASSERT_GT(origin.sentry().pager()->stats().pageIns, 0u);
    const auto snap = origin.snapshot();

    // Cold reference: same steps on one device, plus the epilogue.
    Device cold(platform, options);
    runBackground(cold, true);
    cold.kernel().touchRange(
        *cold.kernel().processes().front(),
        cold.kernel().processes().front()->addressSpace().vmas()
            .front().base + 1 * MiB,
        512 * KiB);
    cold.kernel().unlockScreen("0000");

    // Forked run: only the epilogue executes post-fork. The pager's
    // resident list must have re-threaded onto the forked processes.
    Device fork(platform, options);
    fork.forkFrom(*snap);
    EXPECT_EQ(fork.sentry().pager()->stats().pageIns,
              origin.sentry().pager()->stats().pageIns);
    fork.kernel().touchRange(
        *fork.kernel().processes().front(),
        fork.kernel().processes().front()->addressSpace().vmas()
            .front().base + 1 * MiB,
        512 * KiB);
    fork.kernel().unlockScreen("0000");

    EXPECT_EQ(deviceDigest(fork), deviceDigest(cold));
    EXPECT_EQ(fork.sentry().pager()->stats().evictions,
              cold.sentry().pager()->stats().evictions);
}

TEST(SnapshotFork, RekeyedAmnesiaForkMatchesColdUnlock)
{
    // Amnesia rekeys its pinned working key on every lock epoch; the
    // warm-up's lockScreen() is rekey #1. A fork taken after that
    // rekey must carry the epoch, the pinned key slot, and the
    // register-only engine schedule, so the forked unlock runs
    // bit-identically to a cold-booted device.
    SentryOptions options;
    options.defense = DefenseKind::Amnesia;

    Device origin(config(), options);
    apps::SyntheticApp originApp = warmUp(origin);
    ASSERT_EQ(origin.sentry().defense().costs().rekeys, 1u);
    const auto snap = origin.snapshot();

    Device fork(config(), options);
    fork.forkFrom(*snap);
    EXPECT_EQ(fork.sentry().defense().costs().rekeys, 1u);
    os::Process *process = fork.kernel().processes().front().get();
    apps::SyntheticApp app(fork.kernel(), *process);
    probe::CounterSink sink;
    sink.attach(fork.soc().trace());
    const RunRecord forked = unlockAndResume(fork, app, sink);

    const RunRecord cold = coldRun(options);
    EXPECT_EQ(forked.digest, cold.digest);
    EXPECT_EQ(forked.counters, cold.counters);
    EXPECT_EQ(forked.faultsServiced, cold.faultsServiced);
    EXPECT_EQ(forked.bytesDecryptedOnDemand,
              cold.bytesDecryptedOnDemand);
    EXPECT_EQ(forked.secretBack, SECRET);
}

TEST(SnapshotFork, AmnesiaForkRekeysWithTheTemplatesKey)
{
    // Every lock rewrites Amnesia's pinned working key. A fork must
    // write the template's key, never one derived from the master of
    // the stack it was constructed on: forks of one snapshot onto
    // targets built with different seeds lock into the origin's state.
    SentryOptions options;
    options.defense = DefenseKind::Amnesia;
    const auto seeded = [](std::uint64_t seed) {
        hw::PlatformConfig platform = config();
        platform.seed = seed;
        return platform;
    };
    // Memory, on-SoC storage and clock after the lock.
    const auto lockedState = [](Device &device) {
        device.kernel().lockScreen();
        crypto::Sha256 hasher;
        const crypto::Sha256Digest memory = deviceDigest(device);
        hasher.update(memory);
        hasher.update(device.soc().l2().forkState().image->data);
        return hasher.finish();
    };

    Device origin(seeded(1), options);
    apps::SyntheticApp app(origin.kernel(),
                           apps::AppProfile::byName("Contacts"));
    app.populate(SECRET);
    origin.sentry().markSensitive(app.process());
    const auto snap = origin.snapshot();

    Device sameSeed(seeded(1), options);
    Device otherSeed(seeded(2), options);
    sameSeed.forkFrom(*snap);
    otherSeed.forkFrom(*snap);
    const crypto::Sha256Digest want = lockedState(origin);
    EXPECT_EQ(lockedState(sameSeed), want);
    EXPECT_EQ(lockedState(otherSeed), want);
    EXPECT_EQ(otherSeed.sentry().defense().costs().rekeys,
              origin.sentry().defense().costs().rekeys);
}

TEST(SnapshotFork, MemShieldWorkingSetForksFaithfully)
{
    // MemShield's bounded plaintext working set (and its mem-crypto
    // engine key) must survive the fork: the forked unlock decrypts
    // the same pages through hw::MemCryptoEngine as the cold run.
    SentryOptions options;
    options.defense = DefenseKind::MemShield;

    Device origin(config(), options);
    apps::SyntheticApp originApp = warmUp(origin);
    const auto snap = origin.snapshot();

    Device fork(config(), options);
    fork.forkFrom(*snap);
    os::Process *process = fork.kernel().processes().front().get();
    apps::SyntheticApp app(fork.kernel(), *process);
    probe::CounterSink sink;
    sink.attach(fork.soc().trace());
    const RunRecord forked = unlockAndResume(fork, app, sink);

    const RunRecord cold = coldRun(options);
    EXPECT_EQ(forked.digest, cold.digest);
    EXPECT_EQ(forked.counters, cold.counters);
    EXPECT_EQ(forked.secretBack, SECRET);
}

TEST(RecycledFork, MatchesFreshAfterFleetScaleTouch)
{
    const auto snap = warmTemplate();
    Device target(config());
    target.forkFrom(*snap);
    spawnAndTouch(target, 16 * KiB);
    expectRecycledForkMatchesFresh(target, *snap);
}

TEST(RecycledFork, MatchesFreshAfterLock)
{
    // Locking cleans the whole unmasked L2 (a bulk operation).
    const auto snap = warmTemplate();
    Device target(config());
    target.forkFrom(*snap);
    spawnAndTouch(target, 16 * KiB);
    target.kernel().lockScreen();
    expectRecycledForkMatchesFresh(target, *snap);
}

TEST(RecycledFork, MatchesFreshAfterColdBootReset)
{
    // Power loss decays every DRAM page in place and the boot firmware
    // zeroes iRAM and the whole L2.
    const auto snap = warmTemplate();
    Device target(config());
    target.forkFrom(*snap);
    spawnAndTouch(target, 16 * KiB);
    target.soc().powerCycle(2.0);
    expectRecycledForkMatchesFresh(target, *snap);
}

TEST(RecycledFork, MatchesFreshAfterSwitchingSnapshots)
{
    Device origin(config());
    apps::SyntheticApp originApp = warmUp(origin);
    const auto locked = origin.snapshot();
    const auto snap = warmTemplate();

    // The target last restored another image: this re-fork must take
    // the full path.
    Device target(config());
    target.forkFrom(*locked);
    os::Process *process = target.kernel().processes().front().get();
    apps::SyntheticApp app(target.kernel(), *process);
    target.kernel().unlockScreen("0000");
    app.resume();
    expectRecycledForkMatchesFresh(target, *snap);
}

TEST(RecycledFork, MatchesFreshAfterSingleLineOperations)
{
    const auto snap = lineTemplate();
    Device target(config());
    target.forkFrom(*snap);
    hw::L2Cache &l2 = target.soc().l2();
    std::uint8_t byte = 0x5a;
    l2.write(WRITE_HIT_LINE, &byte, 1);
    l2.read(READ_MISS_LINE, &byte, 1);
    l2.cleanRange(CLEAN_LINE, 1);
    l2.invalidateRange(INVALIDATE_LINE, 1);
    expectRecycledForkMatchesFresh(target, *snap);
}

TEST(RecycledFork, MatchesFreshAfterMaskedFlush)
{
    const auto snap = lineTemplate();
    Device target(config());
    target.forkFrom(*snap);
    target.soc().l2().flushAllMasked();
    expectRecycledForkMatchesFresh(target, *snap);
}

TEST(RecycledFork, MatchesFreshAfterAuditClean)
{
    // The audit's masked clean writes back only the dirty unmasked
    // lines; the sets it marks are all a re-fork copies back.
    const auto snap = warmTemplate();
    Device target(config());
    target.forkFrom(*snap);
    spawnAndTouch(target, 16 * KiB);
    (void)InvariantChecker(target.kernel(), target.sentry()).checkLive();
    expectRecycledForkMatchesFresh(target, *snap);
}

TEST(RecycledFork, MatchesFreshAfterPartialMaskedFlush)
{
    const auto snap = sparseTemplate();
    Device target(config());
    target.forkFrom(*snap);
    hw::L2Cache &l2 = target.soc().l2();
    const auto before = l2.forkState();
    std::size_t flushedSets = 0;
    for (const std::uint32_t valid : before.image->valid)
        flushedSets += (valid & ~l2.flushWayMask()) != 0;
    ASSERT_EQ(flushedSets, 2u);
    l2.flushAllMasked();
    expectRecycledForkMatchesFresh(target, *snap);
}

TEST(RecycledFork, MatchesFreshAfterRawFlush)
{
    const auto snap = lineTemplate();
    Device target(config());
    target.forkFrom(*snap);
    target.soc().l2().rawFlushAll();
    expectRecycledForkMatchesFresh(target, *snap);
}

TEST(RecycledFork, MatchesFreshAfterPartitionedAllocations)
{
    // The rowhammer verb's frames: attacker requests erase from the
    // front of the free list. Once they are freed back on top of it,
    // victim and default requests skip them and erase from the middle.
    const auto snap = warmTemplate();
    Device target(config());
    target.forkFrom(*snap);
    os::PhysAllocator &alloc = target.kernel().allocator();
    alloc.partitionRows(cattPlan(target));
    std::vector<PhysAddr> attacker;
    for (int i = 0; i < 4; ++i)
        attacker.push_back(alloc.allocFrame(os::MemDomain::Attacker));
    for (const PhysAddr frame : attacker)
        alloc.freeFrame(frame);
    const PhysAddr victim = alloc.allocFrame(os::MemDomain::Victim);
    const PhysAddr fallback = alloc.allocFrame(os::MemDomain::Default);
    EXPECT_TRUE(alloc.inVictimRows(victim));
    EXPECT_TRUE(alloc.inVictimRows(fallback));
    ASSERT_EQ(alloc.freeList().back(), attacker.back())
        << "the victim frames came from below the freed attacker frames";
    expectRecycledForkMatchesFresh(target, *snap);
}

TEST(RecycledFork, MatchesFreshAfterContiguousAllocation)
{
    // Amnesia's dm-crypt provider backs each cipher's engine state with
    // contiguous DRAM frames.
    SentryOptions amnesia;
    amnesia.defense = DefenseKind::Amnesia;
    const auto snap = warmTemplate(amnesia);
    Device target(config(), amnesia);
    target.forkFrom(*snap);
    const std::size_t freeBefore = target.kernel().allocator().freeFrames();
    const auto cipher =
        target.kernel().cryptoApi().allocCipher("aes", SECRET);
    ASSERT_NE(cipher, nullptr);
    EXPECT_LT(target.kernel().allocator().freeFrames(), freeBefore);
    expectRecycledForkMatchesFresh(target, *snap, amnesia);
}

TEST(RecycledFork, MatchesFreshAfterProcessExitAndZeroFreed)
{
    // A new process takes frames off the top of the free list and
    // exits, handing them back in another order; then the template's
    // process exits too and the zeroing thread scrubs every freed page.
    const auto snap = warmTemplate();
    Device target(config());
    target.forkFrom(*snap);
    os::Kernel &kernel = target.kernel();
    spawnAndTouch(target, 16 * KiB);
    kernel.destroyProcess(*kernel.processes().back());
    kernel.destroyProcess(*kernel.processes().front());
    EXPECT_GT(kernel.freedPendingBytes(), 2 * MiB);
    (void)kernel.zeroFreedPages();
    EXPECT_EQ(kernel.freedPendingBytes(), 0u);
    expectRecycledForkMatchesFresh(target, *snap);
}

TEST(RecycledFork, MatchesFreshAfterSwitchingSnapshotsBack)
{
    // Fork A, then B, then A again: the held images follow each switch,
    // so no re-fork restores against the other template's image. B has
    // no process, so its free list is longer than A's by the warm heap.
    const auto snapA = warmTemplate();
    Device bare(config());
    bare.sentry().registerCryptoProviders();
    const auto snapB = bare.snapshot();
    Device target(config());
    target.forkFrom(*snapA);
    spawnAndTouch(target, 16 * KiB);
    target.forkFrom(*snapB);
    spawnAndTouch(target, 8 * KiB);
    expectRecycledForkMatchesFresh(target, *snapA);
}

TEST(RecycledFork, MatchesFreshAfterTheGauntlet)
{
    // The fleet runner's recycled device after bench_fleet's ten-verb
    // gauntlet, with a background app paging through the locked cache
    // while locked: secure-world entries, the pager, cold-boot resets
    // and each backend's engine and key state all moved since its fork.
    const fleet::Scenario scenario = test::tenVerbGauntlet(true);
    for (const DefenseKind defense :
         {DefenseKind::Sentry, DefenseKind::Amnesia,
          DefenseKind::MemShield}) {
        SCOPED_TRACE(defenseKindName(defense));
        fleet::FleetOptions fleetOptions;
        fleetOptions.defense = defense;
        fleetOptions.dramBytes = 4 * MiB;
        fleetOptions.spawnMode = fleet::SpawnMode::Snapshot;
        fleetOptions = fleet::resolveFleetOptions(scenario, fleetOptions);
        fleet::DevicePool pool;
        (void)fleet::runDevice(scenario, fleetOptions, 0, &pool);
        ASSERT_NE(pool.device, nullptr);
        Device &target = *pool.device;
        const DeviceSnapshot &snap = *fleetOptions.templateSnapshot;

        SentryOptions options;
        options.placement = AesPlacement::LockedL2;
        options.backgroundMode = true;
        options.defense = defense;
        Device fresh(target.soc().config(), options);
        fresh.forkFrom(snap);
        const SentrySnapshot ran = target.sentry().snapshot();
        const SentrySnapshot forked = fresh.sentry().snapshot();
        EXPECT_NE(target.soc().trustzone().forkState(),
                  fresh.soc().trustzone().forkState());
        EXPECT_NE(ran.pager, forked.pager);
        // The page cipher ran: Sentry's own engine or the backend's.
        EXPECT_TRUE(ran.engine != forked.engine ||
                    ran.defense != forked.defense);
        expectRecycledForkMatchesFresh(target, snap, options);
    }
}

TEST(SnapshotForkDeath, DefenseKindMismatchIsFatal)
{
    // A snapshot of an Amnesia device must not restore into a device
    // running a different backend — silent key-model mixing would
    // invalidate every differential result downstream.
    SentryOptions amnesia;
    amnesia.defense = DefenseKind::Amnesia;
    Device origin(config(), amnesia);
    const auto snap = origin.snapshot();
    Device plain(config());
    EXPECT_EXIT(plain.forkFrom(*snap), testing::ExitedWithCode(1),
                "fork");
}

TEST(SnapshotForkDeath, GeometryMismatchIsFatal)
{
    Device origin(config());
    const auto snap = origin.snapshot();
    Device small(hw::PlatformConfig::nexus4(32 * MiB));
    EXPECT_EXIT(small.forkFrom(*snap), testing::ExitedWithCode(1),
                "fork");
}

TEST(SnapshotForkDeath, OptionMismatchIsFatal)
{
    const auto platform = hw::PlatformConfig::tegra3(64 * MiB);
    SentryOptions background;
    background.backgroundMode = true;
    Device origin(platform, background);
    const auto snap = origin.snapshot();
    Device plain(platform);
    EXPECT_EXIT(plain.forkFrom(*snap), testing::ExitedWithCode(1),
                "fork");
}
