#include "fleet/device_runner.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "attacks/bus_monitor_attack.hh"
#include "attacks/code_injection.hh"
#include "attacks/cold_boot.hh"
#include "attacks/dma_attack.hh"
#include "attacks/v2/cache_attack.hh"
#include "attacks/v2/rowhammer.hh"
#include "attacks/v2/tz_side_channel.hh"
#include "common/bytes.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/device.hh"
#include "core/invariant_checker.hh"
#include "fault/fault.hh"
#include "fault/fault_injector.hh"
#include "os/block_device.hh"
#include "os/buffer_cache.hh"
#include "os/dm_crypt.hh"
#include "os/filebench.hh"

namespace sentry::fleet
{

namespace
{

/** Per-spawned-process bookkeeping. */
struct ProcInfo
{
    os::Process *process = nullptr;
    VirtAddr heapBase = 0;
    std::size_t heapBytes = 0;
    bool sensitive = false;
    bool background = false;
    std::vector<std::uint8_t> secret; //!< plaintext marker in its heap
};

/** kcryptd workers per filebench step: the simulated cores dm-crypt
 *  spreads write encryption over, so this count divides the simulated
 *  write time (ciphertext and energy do not depend on it). */
constexpr unsigned FILEBENCH_WORKERS = 2;

/** Metric tags feeding samplePriority (arbitrary distinct constants). */
constexpr std::uint64_t SALT_UNLOCK = 0x756e6c6f636b5f73ULL;
constexpr std::uint64_t SALT_LOCK = 0x6c6f636b5f5f5f73ULL;
constexpr std::uint64_t SALT_FILEBENCH = 0x66696c6562656e63ULL;
constexpr std::uint64_t SALT_V2ATTACK = 0x76325f61747461b1ULL;
constexpr std::uint64_t SALT_SCHEDULE = 0x7363686564756c65ULL;
constexpr std::uint64_t SALT_BUSKEY = 0x6275736b65795f73ULL;

/** Fail @p result; the first failure's message is the one kept. */
void
failDevice(DeviceResult &result, std::string error)
{
    result.ok = false;
    if (result.error.empty())
        result.error = std::move(error);
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** Platform + Sentry configuration shared by Runner::construct() and the
 * snapshot template (the fork target must match the template's
 * geometry and options exactly). */
std::pair<hw::PlatformConfig, core::SentryOptions>
deviceConfig(const Scenario &scenario, const FleetOptions &options,
             std::uint64_t seed)
{
    hw::PlatformConfig config =
        options.platform == FleetPlatform::Tegra3
            ? hw::PlatformConfig::tegra3(options.dramBytes)
            : hw::PlatformConfig::nexus4(options.dramBytes);
    config.seed = seed;

    core::SentryOptions sentryOptions;
    sentryOptions.placement = core::AesPlacement::LockedL2;
    sentryOptions.backgroundMode = scenario.needsBackground();
    sentryOptions.pagerWays = 2;
    sentryOptions.defense = options.defense;
    return {config, sentryOptions};
}

class Runner
{
  public:
    Runner(const Scenario &scenario, const FleetOptions &options,
           unsigned index, DevicePool *pool)
        : scenario_(scenario), options_(options), index_(index),
          seed_(fleetDeviceSeed(options.seed, index)),
          workloadRng_(seed_ ^ 0xf1ee7a5c0ffee000ULL), pool_(pool)
    {}

    DeviceResult
    run()
    {
        DeviceResult result;
        result.index = index_;
        result.seed = seed_;
        try {
            boot();
            for (const Step &step : scenario_.steps) {
                if (injector_) {
                    injector_->beginStep();
                    if (handlePowerGlitches(result))
                        break;
                }
                executeStep(step, result);
                ++result.stepsExecuted;
                checkInvariants(step, result);
            }
        } catch (const std::exception &e) {
            failDevice(result, e.what());
        }
        if (device_)
            snapshot(result);
        // Park the device for the next index this worker runs: the
        // next boot() forkFrom() undoes everything this device changed,
        // so recycling cannot leak state between devices.
        if (pool_ && device_ && options_.spawnMode == SpawnMode::Snapshot)
            pool_->device = std::move(device_);
        return result;
    }

  private:
    /** Construct this device's stack from its configuration. */
    void
    construct()
    {
        const auto [config, sentryOptions] =
            deviceConfig(scenario_, options_, seed_);
        device_ = std::make_unique<core::Device>(config, sentryOptions);
    }

    void
    boot()
    {
        if (options_.spawnMode == SpawnMode::Snapshot) {
            if (!options_.templateSnapshot)
                throw std::runtime_error(
                    "snapshot spawn mode without a template snapshot "
                    "(see makeFleetTemplate)");
            // Reuse the worker's parked device when one is available
            // (forkFrom undoes everything the previous device changed);
            // construct one only on the first run.
            if (pool_ != nullptr && pool_->device)
                device_ = std::move(pool_->device);
            else
                construct();
            // Fork the warmed image instead of re-booting. forkFrom
            // re-registers the crypto providers on this fresh target.
            device_->forkFrom(*options_.templateSnapshot);
            // The fork inherited the template's RNG stream, and a
            // recycled target still holds the fuse of the index it was
            // built for; re-seed both so each device is its own.
            device_->soc().reseed(seed_);
        } else {
            construct();
            device_->sentry().registerCryptoProviders();
        }
        enableRowPartition();
        checker_ = std::make_unique<core::InvariantChecker>(
            device_->kernel(), device_->sentry());
        if (options_.faultSchedule != nullptr &&
            !options_.faultSchedule->empty()) {
            injector_ = std::make_unique<fault::FaultInjector>(
                *options_.faultSchedule, seed_ ^ 0xfa017a5e5ca1ab1eULL);
            injector_->arm(device_->soc());
        }
        // The engine counts each event after every subscriber ran, so
        // the totals carry the injector's response fields. The timeline
        // subscribes after the injector (subscription order is callback
        // order), so it records fault effects and bus-delay cycles too.
        counters_.attach(device_->soc().trace());
        if (index_ == 0 && !options_.traceOutPath.empty()) {
            chromeSink_ = std::make_unique<probe::ChromeTraceSink>();
            chromeSink_->attach(device_->soc().trace());
            // A run that dies on an invariant panic (or simply never
            // reaches the explicit writeJson) still dumps its timeline.
            chromeSink_->setAutoDump(options_.traceOutPath);
        }
    }

    /**
     * Install the CATT-style row partition on devices whose scenario
     * hammers DRAM. Gated on the rowhammer verb so scenarios without
     * one keep today's frame-allocation order bit for bit (the
     * partition is only observable through disturbance anyway). Runs
     * on both boot paths, after forkFrom() rewrote the allocator, so
     * cold-booted and snapshot-forked devices agree.
     */
    void
    enableRowPartition()
    {
        const bool hammers = std::any_of(
            scenario_.steps.begin(), scenario_.steps.end(),
            [](const Step &step) {
                return step.op == Op::Attack &&
                       step.attack == AttackKind::Rowhammer;
            });
        if (!hammers)
            return;
        // The CATT partition is part of Sentry's bundle, not the
        // hardware: a backend that doesn't claim Rowhammer doesn't
        // deploy it (that's precisely the exposure the differential
        // harness measures).
        if (!defense().defeats(core::Threat::Rowhammer))
            return;
        hw::Dram &dram = device_->soc().dram();
        const hw::DramGeometry &geom = dram.geometry();
        const std::size_t rowsPerBank = geom.rowsPerBank(dram.size());
        if (rowsPerBank < 8)
            return; // too small to carve an attacker region out of
        os::RowPartition plan;
        plan.rowBytes = geom.rowBytes;
        plan.banks = geom.banks;
        plan.victimRowLimit = rowsPerBank * 3 / 4;
        plan.guardRows = 1;
        plan.geomBase = DRAM_BASE;
        device_->kernel().allocator().partitionRows(plan);
    }

    /**
     * Apply any power_glitch faults due at the step that just began.
     * @return true when a glitch fired — the run stops there (the whole
     * software stack below us was just power-cycled).
     */
    bool
    handlePowerGlitches(DeviceResult &result)
    {
        const std::vector<fault::FaultSpec> due =
            injector_->dueStepFaults();
        if (due.empty())
            return false;
        const bool wasLocked = deviceLocked();
        hw::Soc &soc = device_->soc();
        for (const fault::FaultSpec &spec : due)
            soc.powerCycle(spec.seconds);
        coldBooted_ = true;
        result.powerGlitched = true;

        const core::CheckOutcome iramCheck =
            checker_->checkIramZeroed(soc);
        if (!iramCheck.ok)
            failDevice(result, "power glitch: " + iramCheck.detail);
        // Remanent DRAM is only required to be secret-free while the
        // device was locked; an awake device legitimately holds
        // decrypted pages (the paper's threat model).
        if (wasLocked) {
            const core::DumpLeaks leaks = checker_->checkDumps(soc);
            tallyLeaks(result, leaks);
            if (leaks.sensitiveLeaked != 0) {
                failDevice(result, "power glitch left the secret of "
                                   "sensitive process '" +
                                       leaks.firstLeakedOwner +
                                       "' in remanent memory");
            }
        }
        return true;
    }

    /** Per-device heterogeneity: scale by [1-j, 1+j] (see `jitter`). */
    double
    jitterFactor()
    {
        if (scenario_.jitter <= 0.0)
            return 1.0;
        return 1.0 - scenario_.jitter +
               2.0 * scenario_.jitter * workloadRng_.uniform();
    }

    std::size_t
    jitterBytes(std::size_t bytes, std::size_t quantum)
    {
        const auto scaled = static_cast<std::size_t>(
            static_cast<double>(bytes) * jitterFactor());
        return std::max(quantum, alignUp(scaled, quantum));
    }

    double
    jitterSeconds(double seconds)
    {
        return seconds * jitterFactor();
    }

    [[noreturn]] void
    stepError(const Step &step, const std::string &what) const
    {
        throw std::runtime_error("line " + std::to_string(step.line) +
                                 ": " + what);
    }

    bool
    deviceLocked() const
    {
        const os::PowerState state = device_->kernel().powerState();
        return state != os::PowerState::Awake;
    }

    core::DefenseBackend &
    defense()
    {
        return device_->sentry().defense();
    }

    /**
     * Score one observed breach by @p step's verb against the backend's
     * claimed threat matrix. A breach of a threat the backend claims to
     * defeat counts a claim breach and fails the device with "line N:
     * <what>"; a breach of a claimed-vulnerable threat only counts a
     * vulnerable hit and the run continues (the asymmetry the
     * differential harness measures). A verb with no threat
     * (code_injection) fails the device and counts neither.
     */
    void
    breach(const Step &step, DeviceResult &result, const std::string &what)
    {
        const std::optional<core::Threat> threat =
            attackVerb(step.attack).threat;
        if (threat.has_value()) {
            if (!defense().defeats(*threat)) {
                ++result.defenseVulnerableHits;
                return;
            }
            ++result.defenseClaimBreaches;
        }
        failDevice(result, "line " + std::to_string(step.line) + ": " + what);
    }

    /** Add one memory grep's probe and leak counts to @p result. */
    static void
    tallyLeaks(DeviceResult &result, const core::DumpLeaks &leaks)
    {
        result.sensitiveSecretsProbed += leaks.sensitiveProbed;
        result.sensitiveSecretsLeaked += leaks.sensitiveLeaked;
        result.nonSensitiveLeaks += leaks.nonSensitiveLeaks;
    }

    void
    executeStep(const Step &step, DeviceResult &result)
    {
        if (coldBooted_ && step.op != Op::Attack && step.op != Op::Sleep)
            stepError(step, "device was cold-booted; only attack/sleep "
                            "steps may follow");

        os::Kernel &kernel = device_->kernel();
        switch (step.op) {
          case Op::Spawn:
            doSpawn(step);
            break;
          case Op::Lock:
            kernel.lockScreen();
            result.lock.add(
                device_->sentry().stats().lastLockSeconds,
                samplePriority(seed_, SALT_LOCK, result.lock.count()));
            break;
          case Op::Unlock:
            if (kernel.unlockScreen(step.pin)) {
                result.unlock.add(
                    device_->sentry().stats().lastUnlockSeconds,
                    samplePriority(seed_, SALT_UNLOCK,
                                   result.unlock.count()));
            } else {
                ++result.failedUnlocks;
            }
            break;
          case Op::Sleep:
            device_->soc().clock().advanceSeconds(
                jitterSeconds(step.seconds));
            break;
          case Op::Suspend:
            kernel.suspendToRam(jitterSeconds(step.seconds));
            break;
          case Op::Wake:
            kernel.wakeUp(os::WakeReason::UserInteraction);
            break;
          case Op::Touch:
            doTouch(step);
            break;
          case Op::Filebench:
            doFilebench(step, result);
            break;
          case Op::Attack:
            doAttack(step, result);
            break;
          case Op::ZeroFreed:
            kernel.zeroFreedPages();
            break;
        }
    }

    void
    doSpawn(const Step &step)
    {
        // Sentry turns background mode off on a platform without cache
        // locking (nexus4): it has no pager to keep the process on-SoC.
        if (step.background && device_->sentry().pager() == nullptr)
            stepError(step, "background spawn of '" + step.name +
                                "' needs background mode, which this "
                                "platform cannot run (no cache locking)");
        // Every size and the secret are drawn before anything is
        // allocated, in the order the workload stream has always used.
        const std::size_t heapBytes = jitterBytes(step.bytes, PAGE_SIZE);
        ProcInfo info;
        info.sensitive = step.sensitive;
        info.background = step.background;
        info.secret.resize(16);
        for (auto &byte : info.secret)
            byte = static_cast<std::uint8_t>(workloadRng_.next64());
        const std::size_t dmaBytes =
            step.dmaBytes != 0 ? jitterBytes(step.dmaBytes, PAGE_SIZE) : 0;

        // The kernel backs the kernel stack, the heap and the DMA
        // region with frames at spawn; one that does not fit fails the
        // device here instead of the allocator ending the process.
        os::Kernel &kernel = device_->kernel();
        const std::size_t frames = 1 + (heapBytes + dmaBytes) / PAGE_SIZE;
        const std::size_t freeFrames = kernel.allocator().freeFrames();
        if (frames > freeFrames)
            stepError(step, "spawn of '" + step.name + "' needs " +
                                std::to_string(frames) +
                                " frames (kernel stack, heap and DMA "
                                "region) but only " +
                                std::to_string(freeFrames) + " are free");

        os::Process &process = kernel.createProcess(step.name);
        const os::Vma &heap =
            kernel.addVma(process, "heap", os::VmaType::Heap, heapBytes);
        info.process = &process;
        info.heapBase = heap.base;
        info.heapBytes = heap.size;
        // Plant the secret at the top of every heap page: the audits
        // and attack greps look for exactly these bytes.
        for (std::size_t off = 0; off < heap.size; off += PAGE_SIZE)
            kernel.writeVirt(process, heap.base + off, info.secret.data(),
                             info.secret.size());

        // A DMA-region VMA makes unlock pay the paper's eager-decrypt
        // cost (physically-addressed buffers cannot fault).
        if (dmaBytes != 0) {
            const os::Vma &dma = kernel.addVma(
                process, "dma", os::VmaType::DmaRegion, dmaBytes);
            for (std::size_t off = 0; off < dma.size; off += PAGE_SIZE)
                kernel.writeVirt(process, dma.base + off,
                                 info.secret.data(), info.secret.size());
        }

        if (step.sensitive)
            device_->sentry().markSensitive(process);
        if (step.background)
            device_->sentry().markBackground(process);
        checker_->addMarker({step.name, info.secret, step.sensitive});
        procs_.emplace(step.name, info);
    }

    void
    doTouch(const Step &step)
    {
        const ProcInfo &info = procs_.at(step.name);
        if (deviceLocked() && info.sensitive && !info.background)
            stepError(step, "touch of parked sensitive process '" +
                                step.name +
                                "' while locked would decrypt pages "
                                "into DRAM (mark it background)");
        const std::size_t len = std::min(
            jitterBytes(step.bytes, PAGE_SIZE), info.heapBytes);
        device_->kernel().touchRange(*info.process, info.heapBase, len);
    }

    void
    doFilebench(const Step &step, DeviceResult &result)
    {
        hw::Soc &soc = device_->soc();
        const std::size_t ioBytes = jitterBytes(step.bytes, 4 * KiB);
        const std::size_t partition =
            std::max<std::size_t>(4 * MiB, 2 * ioBytes);

        std::vector<std::uint8_t> key(16);
        for (auto &byte : key)
            byte = static_cast<std::uint8_t>(workloadRng_.next64());

        os::RamBlockDevice disk(soc.clock(), partition);
        os::DmCrypt dm(disk,
                       device_->kernel().cryptoApi().allocCipher("aes",
                                                                 key),
                       FILEBENCH_WORKERS);
        os::BufferCache cache(soc.clock(), dm, partition / 2);
        os::Filebench bench(soc.clock(), cache, partition / 2);
        Rng ioRng(workloadRng_.next64());
        const os::FilebenchResult fb =
            bench.run(step.workload, ioBytes, step.directIo, ioRng);
        result.filebench.add(fb.mbPerSec(),
                             samplePriority(seed_, SALT_FILEBENCH,
                                            result.filebench.count()));
    }

    void
    doAttack(const Step &step, DeviceResult &result)
    {
        if (!deviceLocked())
            stepError(step, "attack against an awake device is outside "
                            "the paper's threat model (lock first)");
        hw::Soc &soc = device_->soc();
        ++result.attacksRun;

        // Backend-independent schedule fingerprint: hashed from the
        // device seed and the attack ordinal alone, never from backend
        // state, so every backend replays a byte-identical schedule
        // (the differential tests compare these across backends).
        if (!result.scheduleDigest.empty())
            result.scheduleDigest += " || ";
        result.scheduleDigest +=
            std::string(attackKindName(step.attack)) + "@" +
            std::to_string(step.line) + ":" +
            hex64(samplePriority(seed_, SALT_SCHEDULE,
                                 result.attacksRun - 1));

        switch (step.attack) {
          case AttackKind::ColdBootReflash:
            doColdBoot(step, result, attacks::ColdBootVariant::DeviceReflash);
            break;
          case AttackKind::OsReboot:
            doColdBoot(step, result, attacks::ColdBootVariant::OsReboot);
            break;
          case AttackKind::TwoSecondReset:
            doColdBoot(step, result,
                       attacks::ColdBootVariant::TwoSecondReset);
            break;
          case AttackKind::Dma:
            scoreDump(step, result, dmaDumpLeaks(soc));
            break;
          case AttackKind::BusMonitor:
            doBusMonitor(step, result);
            break;
          case AttackKind::CodeInjection:
            doCodeInjection(step, result);
            break;
          case AttackKind::PrimeProbe:
          case AttackKind::EvictReload:
            doCacheAttack(step, result);
            break;
          case AttackKind::Rowhammer:
            doRowhammer(step, result);
            break;
          case AttackKind::TzSideChannel:
            doTzSideChannel(step, result);
            break;
        }
        if (attackVerb(step.attack).coldBootFamily)
            coldBooted_ = true;
    }

    /** Tally a memory grep's leaks; a sensitive leak is a breach. */
    void
    scoreDump(const Step &step, DeviceResult &result,
              const core::DumpLeaks &leaks)
    {
        tallyLeaks(result, leaks);
        if (leaks.sensitiveLeaked != 0)
            breach(step, result,
                   std::string("attack ") + attackKindName(step.attack) +
                       " recovered the secret of sensitive process '" +
                       leaks.firstLeakedOwner + "'");
    }

    /** Reset the device the cold-boot way; the attacker's readout is
     * the memory as the reset left it. */
    void
    doColdBoot(const Step &step, DeviceResult &result,
               attacks::ColdBootVariant variant)
    {
        hw::Soc &soc = device_->soc();
        attacks::ColdBootAttack(variant, step.frozen ? -18.0 : 22.0)
            .performReset(soc);
        scoreDump(step, result, checker_->checkDumps(soc));
    }

    /**
     * A DDR probe watches while the system generates traffic: a cache
     * clean (which honours the flush mask) plus a full DMA sweep.
     * Everything that crosses the bus is grepped for the sensitive
     * markers as it crosses, and none of it kept.
     */
    void
    doBusMonitor(const Step &step, DeviceResult &result)
    {
        hw::Soc &soc = device_->soc();
        std::vector<std::vector<std::uint8_t>> sensitive;
        for (const core::SecretMarker &marker : checker_->markers()) {
            if (marker.sensitive)
                sensitive.push_back(marker.bytes);
        }
        StreamMatcher crossed(std::move(sensitive));
        attacks::BusMonitorAttack probe(soc, crossed);
        probe.startCapture();
        soc.l2().cleanAllMasked();
        const core::DumpLeaks leaks = dmaDumpLeaks(soc);
        std::size_t next = 0;
        for (const core::SecretMarker &marker : checker_->markers()) {
            if (marker.sensitive && crossed.found(next++))
                breach(step, result,
                       "bus probe captured the secret of sensitive "
                       "process '" +
                           marker.owner + "'");
        }
        // A backend whose cipher state sits in DRAM gives the probe a
        // second channel: the table-access pattern of the cipher itself
        // (Tromer/Osvik/Shamir). Sentry and MemShield keep all cipher
        // state on the SoC, so this phase never runs for them and their
        // bus traffic stays untouched.
        crypto::SimAesEngine *dramEngine = defense().dramStateEngine();
        if (dramEngine != nullptr) {
            Rng sideRng(
                samplePriority(seed_, SALT_BUSKEY, result.attacksRun - 1));
            const attacks::SideChannelResult side = probe.recoverAesKeyBits(
                *dramEngine, /*num_blocks=*/48, sideRng);
            if (side.recoveredBytes() != 0)
                breach(step, result,
                       "bus probe recovered AES key bits from the "
                       "DRAM-resident cipher state");
        }
        scoreDump(step, result, leaks);
    }

    /**
     * With a secure world, TrustZone must deny peripheral writes into
     * iRAM; without one (locked-firmware Nexus 4) the landed write is
     * the platform's documented weakness, not a Sentry regression. No
     * platform may accept an unsigned firmware image.
     */
    void
    doCodeInjection(const Step &step, DeviceResult &result)
    {
        hw::Soc &soc = device_->soc();
        attacks::CodeInjectionAttack inject;
        const std::vector<std::uint8_t> payload(64, 0xCC);
        if (inject
                .injectViaDma(soc, IRAM_BASE + IRAM_FIRMWARE_RESERVED,
                              payload, "on-SoC crypto state")
                .secretRecovered &&
            soc.config().secureWorldAvailable)
            breach(step, result,
                   "DMA code injection into iRAM landed despite TrustZone "
                   "protection");
        const std::vector<std::uint8_t> evilImage(256, 0x90);
        if (inject.replaceFirmware(soc, evilImage).secretRecovered)
            breach(step, result, "unsigned firmware image was accepted");
    }

    /** DMA-sweep all of DRAM, then all of iRAM, grepping each image
     * for every marker as its bursts arrive. */
    core::DumpLeaks
    dmaDumpLeaks(hw::Soc &soc)
    {
        StreamMatcher dram = checker_->markerMatcher();
        StreamMatcher iram = checker_->markerMatcher();
        attacks::DmaAttack().grepMemory(soc, dram, iram);
        return checker_->checkDumps(dram, iram);
    }

    /** Record a v2 outcome into the replay digest (" || "-joined). */
    static void
    appendAttackDigest(DeviceResult &result,
                       const attacks::v2::AttackOutcome &outcome)
    {
        if (!result.attackDigest.empty())
            result.attackDigest += " || ";
        result.attackDigest += outcome.digest();
    }

    /** Per-attack seed: a pure hash, so the stream a given attack
     * ordinal draws never depends on host or thread state. */
    std::uint64_t
    v2AttackSeed(const DeviceResult &result) const
    {
        return samplePriority(seed_, SALT_V2ATTACK, result.v2AttacksRun);
    }

    void
    doCacheAttack(const Step &step, DeviceResult &result)
    {
        hw::Soc &soc = device_->soc();
        ++result.v2AttacksRun;
        const std::uint64_t atkSeed = v2AttackSeed(result);

        // The monitored line: Sentry's locked-way key/pager window when
        // lockdown is active (tegra3), else the iRAM key residence
        // (nexus4) — i.e. wherever this device keeps what the paper
        // protects. Both are expected to carry no timing signal.
        core::LockedWayManager &ways = device_->sentry().wayManager();
        const std::uint32_t lockedMask = ways.lockedMask();
        // A backend with DRAM-resident cipher state hands the attacker
        // a better line to monitor: its own table region, cacheable and
        // touched on every encryption. Sentry and MemShield keep that
        // state on the SoC, so their victim stays the locked-way/iRAM
        // window (expected to carry no signal).
        crypto::SimAesEngine *dramEngine = defense().dramStateEngine();
        const PhysAddr victim =
            dramEngine != nullptr
                ? dramEngine->stateBase()
                : (lockedMask != 0
                       ? ways.wayWindowBase(static_cast<unsigned>(
                             std::countr_zero(lockedMask)))
                       : IRAM_BASE + IRAM_FIRMWARE_RESERVED + 4 * KiB);

        attacks::v2::CacheAttackConfig config;
        config.victimAddr = victim;
        const std::size_t span =
            (soc.l2().ways() + 1) * soc.l2().waySizeBytes();
        // Top of DRAM: far from the kernel's low-address allocations,
        // and the attacker only ever reads it.
        config.attackerBase = soc.dramEnd() - span;
        config.attackerSpan = span;
        const attacks::v2::VictimFn victimFn = [victim](hw::Soc &s) {
            std::uint8_t buf[4];
            s.memory().read(victim, buf, sizeof buf);
        };

        attacks::v2::AttackOutcome outcome;
        if (step.attack == AttackKind::PrimeProbe) {
            attacks::v2::PrimeProbeAttack attack(config, victimFn,
                                                 atkSeed);
            outcome = attack.run(soc);
        } else {
            attacks::v2::EvictReloadAttack attack(config, victimFn,
                                                  atkSeed);
            outcome = attack.run(soc);
        }
        result.v2LockedWaybacks += outcome.counter("locked_writebacks");
        appendAttackDigest(result, outcome);
        if (outcome.secretRecovered ||
            outcome.counter("locked_writebacks") != 0)
            breach(step, result,
                   std::string("attack ") + attackKindName(step.attack) +
                       " recovered the secret storage location of the "
                       "sentry keys via cache timing");
    }

    void
    doRowhammer(const Step &step, DeviceResult &result)
    {
        hw::Soc &soc = device_->soc();
        ++result.v2AttacksRun;
        const std::uint64_t atkSeed = v2AttackSeed(result);
        os::PhysAllocator &alloc = device_->kernel().allocator();

        const bool claimed =
            defense().defeats(core::Threat::Rowhammer);
        attacks::v2::RowhammerConfig config;
        std::vector<PhysAddr> aggressorFrames;
        if (alloc.rowPartition().enabled()) {
            for (unsigned i = 0; i < 4; ++i) {
                const PhysAddr frame =
                    alloc.tryAllocFrame(os::MemDomain::Attacker);
                if (frame == 0)
                    break;
                aggressorFrames.push_back(frame);
            }
        } else if (!claimed) {
            // No CATT partition deployed: the attacker's pages come out
            // of the common pool, row-adjacent to everyone else's.
            for (unsigned i = 0; i < 4; ++i) {
                const PhysAddr frame =
                    alloc.tryAllocFrame(os::MemDomain::Default);
                if (frame == 0)
                    break;
                aggressorFrames.push_back(frame);
            }
        }
        config.aggressors = aggressorFrames;

        attacks::v2::RowhammerAttack attack(std::move(config), atkSeed);
        attacks::v2::AttackOutcome outcome = attack.run(soc);
        if (aggressorFrames.empty())
            outcome.notes.push_back(
                "row partition disabled or attacker region exhausted");

        // Which frames hold sensitive-process pages right now?
        std::set<PhysAddr> victimFrames;
        for (const auto &[name, info] : procs_) {
            if (!info.sensitive)
                continue;
            info.process->pageTable().forEach(
                [&](VirtAddr, os::Pte &pte) {
                    if (pte.frame != 0)
                        victimFrames.insert(pte.frame);
                });
        }
        std::uint64_t victimFlips = 0;
        for (const hw::FlippedBit &flip : attack.flips()) {
            const PhysAddr page =
                alignDown(DRAM_BASE + flip.offset, PAGE_SIZE);
            if (victimFrames.contains(page))
                ++victimFlips;
        }
        outcome.count("victim_row_flips", victimFlips);
        // The attack itself reports any flip as integrity loss; at the
        // device level the defense goal is narrower — "recovered" in
        // the replay digest means a flip reached sensitive memory.
        outcome.secretRecovered = victimFlips != 0;
        result.v2RowhammerFlips += outcome.counter("bit_flips");
        result.v2VictimRowFlips += victimFlips;
        appendAttackDigest(result, outcome);
        // A defending backend (CATT partition) is breached only when a
        // flip reaches sensitive memory; a non-defending one counts any
        // disturbance flip at all — without the partition the attacker
        // can steer aggressors next to whatever it likes eventually.
        const bool breached = claimed
                                  ? victimFlips != 0
                                  : outcome.counter("bit_flips") != 0;
        if (breached)
            breach(step, result,
                   "rowhammer disturbance flipped " +
                       std::to_string(victimFlips) +
                       " bit(s) in sensitive process memory despite the "
                       "row partition");
        for (const PhysAddr frame : aggressorFrames)
            alloc.freeFrame(frame);
    }

    void
    doTzSideChannel(const Step &step, DeviceResult &result)
    {
        hw::Soc &soc = device_->soc();
        ++result.v2AttacksRun;
        const std::uint64_t atkSeed = v2AttackSeed(result);
        os::PhysAllocator &alloc = device_->kernel().allocator();

        // One frame of cacheable DRAM as the world-shared mailbox. A
        // backend that claims this threat deploys the hardened
        // (constant-touch) service; the others ship the naive variant
        // the attack was published against.
        const bool hardened =
            defense().defeats(core::Threat::TzSideChannel);
        const PhysAddr mailbox =
            alloc.tryAllocFrame(os::MemDomain::Default);
        if (mailbox == 0) {
            result.attackDigest += result.attackDigest.empty()
                                       ? "attack=tz_side_channel;oom=1"
                                       : " || attack=tz_side_channel;"
                                         "oom=1";
            return;
        }
        attacks::v2::TzSecretService service(soc, mailbox, hardened);
        attacks::v2::TzSideChannelConfig config;
        const std::size_t span =
            (soc.l2().ways() + 1) * soc.l2().waySizeBytes();
        config.attackerBase = soc.dramEnd() - span;
        config.attackerSpan = span;
        attacks::v2::TzSideChannelAttack attack(config, service, atkSeed);
        const attacks::v2::AttackOutcome outcome = attack.run(soc);
        result.v2RecoveredNibbles += outcome.counter("recovered_nibbles");
        appendAttackDigest(result, outcome);
        if (outcome.secretRecovered)
            breach(step, result,
                   "tz_side_channel recovered the secret of the "
                   "secure-world fuse through the shared mailbox");
        alloc.freeFrame(mailbox);
    }

    void
    checkInvariants(const Step &step, DeviceResult &result)
    {
        // After a cold boot the stack below the kernel was reset: key
        // residency and page states are no longer meaningful. The
        // attack step itself asserted the leak invariant.
        if (coldBooted_)
            return;
        if (!options_.auditEveryStep && step.op != Op::Attack &&
            step.op != Op::Lock && step.op != Op::Unlock &&
            step.op != Op::Suspend)
            return;

        const core::CheckOutcome outcome = checker_->checkLive();
        ++result.auditsRun;
        if (!outcome.ok) {
            ++result.auditFailures;
            failDevice(result, "line " + std::to_string(step.line) +
                                   ": audit failed after step: " +
                                   outcome.detail);
        }
    }

    void
    snapshot(DeviceResult &result)
    {
        const core::SentryStats &stats = device_->sentry().stats();
        result.faultsServiced = stats.faultsServiced;
        result.bytesEncryptedOnLock = stats.bytesEncryptedOnLock;
        result.bytesDecryptedOnDemand = stats.bytesDecryptedOnDemand;
        result.bytesDecryptedEager = stats.bytesDecryptedEager;
        hw::Soc &soc = device_->soc();
        result.simCycles = soc.clock().now();
        const hw::L2Stats &l2 = soc.l2().stats();
        result.l2Hits = l2.hits;
        result.l2Misses = l2.misses;
        const hw::BusStats &bus = soc.bus().stats();
        result.busReads = bus.reads;
        result.busWrites = bus.writes;
        if (injector_) {
            result.faultFirings = injector_->stats().firings;
            result.faultBitFlips = injector_->stats().bitFlips;
            result.faultDigest = injector_->replayDigest();
        }
        const core::DefenseBackend &backend = device_->sentry().defense();
        result.defenseKind = static_cast<unsigned>(backend.kind());
        const core::DefenseCosts &costs = backend.costs();
        result.defenseRekeys = costs.rekeys;
        result.defenseEvictions = costs.evictions;
        result.defenseExtraSeconds = costs.extraSeconds;
        result.defenseExtraJoules = costs.extraJoules;
        result.trace = counters_.counters();
        if (chromeSink_ && !chromeSink_->writeJson(options_.traceOutPath))
            warn("could not write trace to %s",
                 options_.traceOutPath.c_str());
    }

    const Scenario &scenario_;
    const FleetOptions &options_;
    unsigned index_;
    std::uint64_t seed_;
    Rng workloadRng_;

    std::unique_ptr<core::Device> device_;
    std::unique_ptr<core::InvariantChecker> checker_;
    // Declared after device_ so they are destroyed (and unsubscribe
    // from its trace engine) before the Soc they observe.
    std::unique_ptr<fault::FaultInjector> injector_;
    probe::CounterSink counters_;
    std::unique_ptr<probe::ChromeTraceSink> chromeSink_;
    std::map<std::string, ProcInfo> procs_;
    bool coldBooted_ = false;
    DevicePool *pool_ = nullptr;
};

} // namespace

std::uint64_t
fleetDeviceSeed(std::uint64_t fleet_seed, unsigned index)
{
    std::uint64_t state =
        fleet_seed + 0xa5a5a5a5'00000000ULL + index;
    std::uint64_t mixed = splitmix64(state);
    // Never hand out 0: some seed consumers treat it as "default".
    return mixed != 0 ? mixed : 0x5e47ee1dULL;
}

std::uint64_t
samplePriority(std::uint64_t device_seed, std::uint64_t salt,
               std::uint64_t ordinal)
{
    std::uint64_t state =
        (device_seed ^ salt) + ordinal * 0x9e3779b97f4a7c15ULL;
    return splitmix64(state);
}

DevicePool::DevicePool() = default;
DevicePool::~DevicePool() = default;
DevicePool::DevicePool(DevicePool &&) noexcept = default;
DevicePool &DevicePool::operator=(DevicePool &&) noexcept = default;

std::shared_ptr<const core::DeviceSnapshot>
makeFleetTemplate(const Scenario &scenario, const FleetOptions &options)
{
    const auto [config, sentryOptions] =
        deviceConfig(scenario, options, options.seed);
    core::Device device(config, sentryOptions);
    device.sentry().registerCryptoProviders();
    return device.snapshot();
}

DeviceResult
runDevice(const Scenario &scenario, const FleetOptions &options,
          unsigned index, DevicePool *pool)
{
    return Runner(scenario, options, index, pool).run();
}

} // namespace sentry::fleet
