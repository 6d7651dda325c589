#include "stepper.hh"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "attacks/bus_monitor_attack.hh"
#include "attacks/code_injection.hh"
#include "attacks/cold_boot.hh"
#include "attacks/dma_attack.hh"
#include "attacks/v2/cache_attack.hh"
#include "attacks/v2/rowhammer.hh"
#include "attacks/v2/tz_side_channel.hh"
#include "common/rng.hh"
#include "core/device.hh"
#include "core/invariant_checker.hh"
#include "os/block_device.hh"
#include "os/buffer_cache.hh"
#include "os/dm_crypt.hh"
#include "os/filebench.hh"

namespace perfbench
{

using namespace sentry;
using fleet::AttackKind;
using fleet::Op;
using fleet::Step;

namespace
{

// The fleet runner's seed salts (src/fleet/device_runner.cc), so a
// stepped device draws the same sizes and attack streams as the fleet's
// device with the same index.
constexpr std::uint64_t SALT_WORKLOAD = 0xf1ee7a5c0ffee000ULL;
constexpr std::uint64_t SALT_V2ATTACK = 0x76325f61747461b1ULL;
constexpr std::uint64_t SALT_BUSKEY = 0x6275736b65795f73ULL;

std::pair<hw::PlatformConfig, core::SentryOptions>
deviceConfig(const fleet::Scenario &scenario,
             const fleet::FleetOptions &options, std::uint64_t seed)
{
    hw::PlatformConfig config =
        options.platform == fleet::FleetPlatform::Tegra3
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

std::optional<core::Threat>
attackThreat(AttackKind kind)
{
    switch (kind) {
      case AttackKind::ColdBootReflash:
      case AttackKind::OsReboot:
      case AttackKind::TwoSecondReset:
        return core::Threat::ColdBoot;
      case AttackKind::Dma:
        return core::Threat::Dma;
      case AttackKind::BusMonitor:
        return core::Threat::BusMonitor;
      case AttackKind::PrimeProbe:
        return core::Threat::PrimeProbe;
      case AttackKind::EvictReload:
        return core::Threat::EvictReload;
      case AttackKind::Rowhammer:
        return core::Threat::Rowhammer;
      case AttackKind::TzSideChannel:
        return core::Threat::TzSideChannel;
      default:
        return std::nullopt;
    }
}

struct Proc
{
    os::Process *process = nullptr;
    VirtAddr heapBase = 0;
    std::size_t heapBytes = 0;
    bool sensitive = false;
    bool background = false;
};

/** One device's walk through the scenario. */
class DeviceRun
{
  public:
    DeviceRun(const fleet::Scenario &scenario,
              const fleet::FleetOptions &options, Tracer &tracer,
              core::Device &device, std::uint64_t seed)
        : scenario_(scenario), options_(options), tracer_(tracer),
          device_(device), seed_(seed), rng_(seed ^ SALT_WORKLOAD),
          checker_(device.kernel(), device.sentry())
    {}

    void
    run(SteppedDevice &out)
    {
        enableRowPartition();
        for (const Step &step : scenario_.steps) {
            execute(step, out); // throws on a failed step
            audit(step, out);
            if (!out.ok)
                return;
        }
    }

    /** Simulated results, read the way the fleet runner reads them. */
    void
    readResults(SteppedDevice &out) const
    {
        const core::SentryStats &stats = device_.sentry().stats();
        out.faults = stats.faultsServiced;
        out.bytesEncrypted = stats.bytesEncryptedOnLock;
        out.bytesDecryptedOnDemand = stats.bytesDecryptedOnDemand;
        out.bytesDecryptedEager = stats.bytesDecryptedEager;
        hw::Soc &soc = device_.soc();
        out.simCycles = soc.clock().now();
        out.l2Hits = soc.l2().stats().hits;
        out.l2Misses = soc.l2().stats().misses;
        out.busReads = soc.bus().stats().reads;
        out.busWrites = soc.bus().stats().writes;
        out.audits = audits_;
    }

  private:
    using Scope = Tracer::Scope;

    [[noreturn]] void
    fail(const Step &step, const std::string &what) const
    {
        throw std::runtime_error("line " + std::to_string(step.line) +
                                 ": " + what);
    }

    core::DefenseBackend &defense() { return device_.sentry().defense(); }

    bool
    locked() const
    {
        return device_.kernel().powerState() != os::PowerState::Awake;
    }

    double
    jitter()
    {
        if (scenario_.jitter <= 0.0)
            return 1.0;
        return 1.0 - scenario_.jitter +
               2.0 * scenario_.jitter * rng_.uniform();
    }

    std::size_t
    jitterBytes(std::size_t bytes, std::size_t quantum)
    {
        const auto scaled =
            static_cast<std::size_t>(static_cast<double>(bytes) * jitter());
        return std::max(quantum, alignUp(scaled, quantum));
    }

    /** A breach of a claimed threat is a failure; of a conceded one not. */
    bool
    claimed(AttackKind kind)
    {
        const std::optional<core::Threat> threat = attackThreat(kind);
        return !threat.has_value() || defense().defeats(*threat);
    }

    void
    enableRowPartition()
    {
        const bool hammers = std::any_of(
            scenario_.steps.begin(), scenario_.steps.end(),
            [](const Step &step) {
                return step.op == Op::Attack &&
                       step.attack == AttackKind::Rowhammer;
            });
        if (!hammers || !defense().defeats(core::Threat::Rowhammer))
            return;
        hw::Dram &dram = device_.soc().dram();
        const hw::DramGeometry &geom = dram.geometry();
        const std::size_t rowsPerBank = geom.rowsPerBank(dram.size());
        if (rowsPerBank < 8)
            return;
        os::RowPartition plan;
        plan.rowBytes = geom.rowBytes;
        plan.banks = geom.banks;
        plan.victimRowLimit = rowsPerBank * 3 / 4;
        plan.guardRows = 1;
        plan.geomBase = DRAM_BASE;
        device_.kernel().allocator().partitionRows(plan);
    }

    void
    execute(const Step &step, SteppedDevice &out)
    {
        if (coldBooted_ && step.op != Op::Attack && step.op != Op::Sleep)
            fail(step, "device was cold-booted");
        os::Kernel &kernel = device_.kernel();
        switch (step.op) {
          case Op::Spawn:
            spawn(step);
            break;
          case Op::Lock: {
            Scope span(tracer_, "core.lock");
            kernel.lockScreen();
            break;
          }
          case Op::Unlock: {
            Scope span(tracer_, "core.unlock");
            if (!kernel.unlockScreen(step.pin))
                fail(step, "unlock rejected");
            break;
          }
          case Op::Sleep: {
            Scope span(tracer_, "hw.sleep");
            device_.soc().clock().advanceSeconds(step.seconds * jitter());
            break;
          }
          case Op::Suspend: {
            Scope span(tracer_, "os.suspend");
            kernel.suspendToRam(step.seconds * jitter());
            break;
          }
          case Op::Wake: {
            Scope span(tracer_, "os.wake");
            kernel.wakeUp(os::WakeReason::UserInteraction);
            break;
          }
          case Op::Touch: {
            const Proc &proc = procs_.at(step.name);
            if (locked() && proc.sensitive && !proc.background)
                fail(step, "touch of a parked sensitive process");
            const std::size_t len =
                std::min(jitterBytes(step.bytes, PAGE_SIZE), proc.heapBytes);
            Scope span(tracer_, "core.touch");
            kernel.touchRange(*proc.process, proc.heapBase, len);
            break;
          }
          case Op::Filebench:
            out.filebenchBytes += filebench(step);
            break;
          case Op::Attack: {
            if (!locked())
                fail(step, "attack against an awake device");
            Scope span(tracer_, std::string("attacks.") +
                                    fleet::attackKindName(step.attack));
            attack(step);
            break;
          }
          case Op::ZeroFreed: {
            Scope span(tracer_, "os.zero_freed");
            kernel.zeroFreedPages();
            break;
          }
        }
    }

    void
    spawn(const Step &step)
    {
        Scope span(tracer_, "os.spawn");
        os::Kernel &kernel = device_.kernel();
        os::Process &process = kernel.createProcess(step.name);
        // Copy the heap's extent: adding the DMA VMA below may move the
        // process's VMA storage.
        Proc proc;
        {
            const os::Vma &heap =
                kernel.addVma(process, "heap", os::VmaType::Heap,
                              jitterBytes(step.bytes, PAGE_SIZE));
            proc = {&process, heap.base, heap.size, step.sensitive,
                    step.background};
        }
        std::vector<std::uint8_t> secret(16);
        for (auto &byte : secret)
            byte = static_cast<std::uint8_t>(rng_.next64());
        for (std::size_t off = 0; off < proc.heapBytes; off += PAGE_SIZE)
            kernel.writeVirt(process, proc.heapBase + off, secret.data(),
                             secret.size());
        if (step.dmaBytes != 0) {
            const os::Vma &dma =
                kernel.addVma(process, "dma", os::VmaType::DmaRegion,
                              jitterBytes(step.dmaBytes, PAGE_SIZE));
            for (std::size_t off = 0; off < dma.size; off += PAGE_SIZE)
                kernel.writeVirt(process, dma.base + off, secret.data(),
                                 secret.size());
        }
        if (step.sensitive)
            device_.sentry().markSensitive(process);
        if (step.background)
            device_.sentry().markBackground(process);
        checker_.addMarker({step.name, secret, step.sensitive});
        procs_[step.name] = proc;
    }

    std::uint64_t
    filebench(const Step &step)
    {
        Scope span(tracer_, "os.filebench");
        hw::Soc &soc = device_.soc();
        const std::size_t ioBytes = jitterBytes(step.bytes, 4 * KiB);
        const std::size_t partition =
            std::max<std::size_t>(4 * MiB, 2 * ioBytes);
        std::vector<std::uint8_t> key(16);
        for (auto &byte : key)
            byte = static_cast<std::uint8_t>(rng_.next64());
        os::RamBlockDevice disk(soc.clock(), partition);
        os::DmCrypt dm(disk,
                       device_.kernel().cryptoApi().allocCipher("aes", key),
                       2);
        os::BufferCache cache(soc.clock(), dm, partition / 2);
        os::Filebench bench(soc.clock(), cache, partition / 2);
        Rng ioRng(rng_.next64());
        return bench.run(step.workload, ioBytes, step.directIo, ioRng)
            .bytesMoved;
    }

    void
    checkDumps(const Step &step, std::span<const std::uint8_t> dram,
               std::span<const std::uint8_t> iram)
    {
        Scope span(tracer_, "core.dump_check");
        const core::DumpLeaks leaks = checker_.checkDumps(dram, iram);
        if (leaks.sensitiveLeaked != 0 && claimed(step.attack))
            fail(step, std::string(fleet::attackKindName(step.attack)) +
                           " recovered the secret of '" +
                           leaks.firstLeakedOwner + "'");
    }

    void
    attack(const Step &step)
    {
        hw::Soc &soc = device_.soc();
        ++attacks_;
        attacks::DmaAttack dma;
        switch (step.attack) {
          case AttackKind::Dma: {
            const auto dram =
                dma.dumpRange(soc, DRAM_BASE, soc.dramRaw().size());
            const auto iram =
                dma.dumpRange(soc, IRAM_BASE, soc.iramRaw().size());
            checkDumps(step, dram, iram);
            return;
          }
          case AttackKind::BusMonitor: {
            attacks::BusMonitorAttack probe(soc);
            probe.startCapture();
            soc.l2().cleanAllMasked();
            const auto dram =
                dma.dumpRange(soc, DRAM_BASE, soc.dramRaw().size());
            const auto iram =
                dma.dumpRange(soc, IRAM_BASE, soc.iramRaw().size());
            for (const core::SecretMarker &marker : checker_.markers()) {
                if (marker.sensitive &&
                    probe.analyzeForSecret(marker.bytes, marker.owner)
                        .secretRecovered &&
                    claimed(step.attack))
                    fail(step, "bus probe captured a sensitive secret");
            }
            if (crypto::SimAesEngine *engine = defense().dramStateEngine()) {
                Rng sideRng(
                    fleet::samplePriority(seed_, SALT_BUSKEY, attacks_ - 1));
                if (probe.recoverAesKeyBits(*engine, 48, sideRng)
                            .recoveredBytes() != 0 &&
                    claimed(step.attack))
                    fail(step, "bus probe recovered AES key bits");
            }
            checkDumps(step, dram, iram);
            return;
          }
          case AttackKind::CodeInjection: {
            attacks::CodeInjectionAttack inject;
            const std::vector<std::uint8_t> payload(64, 0xCC);
            if (inject
                    .injectViaDma(soc, IRAM_BASE + IRAM_FIRMWARE_RESERVED,
                                  payload, "on-SoC crypto state")
                    .secretRecovered &&
                soc.config().secureWorldAvailable)
                fail(step, "DMA code injection into iRAM landed");
            const std::vector<std::uint8_t> evilImage(256, 0x90);
            if (inject.replaceFirmware(soc, evilImage).secretRecovered)
                fail(step, "unsigned firmware image was accepted");
            return;
          }
          case AttackKind::PrimeProbe:
          case AttackKind::EvictReload:
            cacheAttack(step, v2AttackSeed());
            return;
          case AttackKind::Rowhammer:
            rowhammer(step, v2AttackSeed());
            return;
          case AttackKind::TzSideChannel:
            tzSideChannel(step, v2AttackSeed());
            return;
          case AttackKind::ColdBootReflash:
          case AttackKind::OsReboot:
          case AttackKind::TwoSecondReset: {
            attacks::ColdBootVariant variant =
                attacks::ColdBootVariant::DeviceReflash;
            if (step.attack == AttackKind::OsReboot)
                variant = attacks::ColdBootVariant::OsReboot;
            else if (step.attack == AttackKind::TwoSecondReset)
                variant = attacks::ColdBootVariant::TwoSecondReset;
            attacks::ColdBootAttack(variant, step.frozen ? -18.0 : 22.0)
                .performReset(soc);
            coldBooted_ = true;
            const auto dram = soc.dramRaw();
            const auto iram = soc.iramRaw();
            checkDumps(step,
                       std::vector<std::uint8_t>(dram.begin(), dram.end()),
                       std::vector<std::uint8_t>(iram.begin(), iram.end()));
            return;
          }
        }
    }

    /** The runner's per-attack seed: 1-based ordinal of v2 verbs. */
    std::uint64_t
    v2AttackSeed()
    {
        return fleet::samplePriority(seed_, SALT_V2ATTACK, ++v2Attacks_);
    }

    void
    cacheAttack(const Step &step, std::uint64_t attackSeed)
    {
        hw::Soc &soc = device_.soc();
        core::LockedWayManager &ways = device_.sentry().wayManager();
        const std::uint32_t lockedMask = ways.lockedMask();
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
        config.attackerBase = soc.dramEnd() - span;
        config.attackerSpan = span;
        const attacks::v2::VictimFn victimFn = [victim](hw::Soc &s) {
            std::uint8_t buf[4];
            s.memory().read(victim, buf, sizeof buf);
        };
        attacks::v2::AttackOutcome outcome;
        if (step.attack == AttackKind::PrimeProbe)
            outcome = attacks::v2::PrimeProbeAttack(config, victimFn,
                                                    attackSeed)
                          .run(soc);
        else
            outcome = attacks::v2::EvictReloadAttack(config, victimFn,
                                                     attackSeed)
                          .run(soc);
        if ((outcome.secretRecovered ||
             outcome.counter("locked_writebacks") != 0) &&
            claimed(step.attack))
            fail(step, "cache timing located the sentry keys");
    }

    void
    rowhammer(const Step &step, std::uint64_t attackSeed)
    {
        os::PhysAllocator &alloc = device_.kernel().allocator();
        const bool defended = defense().defeats(core::Threat::Rowhammer);
        std::vector<PhysAddr> frames;
        if (alloc.rowPartition().enabled() || !defended) {
            const os::MemDomain domain = alloc.rowPartition().enabled()
                                             ? os::MemDomain::Attacker
                                             : os::MemDomain::Default;
            for (unsigned i = 0; i < 4; ++i) {
                const PhysAddr frame = alloc.tryAllocFrame(domain);
                if (frame == 0)
                    break;
                frames.push_back(frame);
            }
        }
        attacks::v2::RowhammerConfig config;
        config.aggressors = frames;
        attacks::v2::RowhammerAttack attack(std::move(config), attackSeed);
        const attacks::v2::AttackOutcome outcome =
            attack.run(device_.soc());
        std::set<PhysAddr> victimFrames;
        for (const auto &[name, proc] : procs_) {
            if (!proc.sensitive)
                continue;
            proc.process->pageTable().forEach([&](VirtAddr, os::Pte &pte) {
                if (pte.frame != 0)
                    victimFrames.insert(pte.frame);
            });
        }
        std::uint64_t victimFlips = 0;
        for (const hw::FlippedBit &flip : attack.flips()) {
            if (victimFrames.contains(
                    alignDown(DRAM_BASE + flip.offset, PAGE_SIZE)))
                ++victimFlips;
        }
        const bool breached = defended ? victimFlips != 0
                                       : outcome.counter("bit_flips") != 0;
        if (breached && claimed(step.attack))
            fail(step, "rowhammer flipped bits in sensitive memory");
        for (const PhysAddr frame : frames)
            alloc.freeFrame(frame);
    }

    void
    tzSideChannel(const Step &step, std::uint64_t attackSeed)
    {
        hw::Soc &soc = device_.soc();
        os::PhysAllocator &alloc = device_.kernel().allocator();
        const PhysAddr mailbox = alloc.tryAllocFrame(os::MemDomain::Default);
        if (mailbox == 0)
            return;
        attacks::v2::TzSecretService service(
            soc, mailbox, defense().defeats(core::Threat::TzSideChannel));
        attacks::v2::TzSideChannelConfig config;
        const std::size_t span =
            (soc.l2().ways() + 1) * soc.l2().waySizeBytes();
        config.attackerBase = soc.dramEnd() - span;
        config.attackerSpan = span;
        if (attacks::v2::TzSideChannelAttack(config, service, attackSeed)
                .run(soc)
                .secretRecovered &&
            claimed(step.attack))
            fail(step, "tz_side_channel recovered the fuse secret");
        alloc.freeFrame(mailbox);
    }

    void
    audit(const Step &step, SteppedDevice &out)
    {
        if (coldBooted_)
            return;
        if (!options_.auditEveryStep && step.op != Op::Attack &&
            step.op != Op::Lock && step.op != Op::Unlock &&
            step.op != Op::Suspend)
            return;
        Scope span(tracer_, "core.audit");
        const core::CheckOutcome outcome = checker_.checkLive();
        ++audits_;
        if (!outcome.ok) {
            out.ok = false;
            out.error = "line " + std::to_string(step.line) +
                        ": audit failed: " + outcome.detail;
        }
    }

    const fleet::Scenario &scenario_;
    const fleet::FleetOptions &options_;
    Tracer &tracer_;
    core::Device &device_;
    std::uint64_t seed_;
    Rng rng_;
    core::InvariantChecker checker_;
    std::map<std::string, Proc> procs_;
    std::uint64_t attacks_ = 0;
    std::uint64_t v2Attacks_ = 0;
    unsigned audits_ = 0;
    bool coldBooted_ = false;
};

} // namespace

Stepper::Stepper(const fleet::Scenario &scenario,
                 const fleet::FleetOptions &options, Tracer &tracer)
    : scenario_(scenario), options_(options), tracer_(tracer)
{
    if (options_.spawnMode != fleet::SpawnMode::Snapshot)
        return;
    if (!options_.templateSnapshot)
        throw std::invalid_argument("Stepper: snapshot mode needs resolved "
                                    "options (fleet::resolveFleetOptions)");
    const auto [config, sentryOptions] =
        deviceConfig(scenario_, options_, options_.seed);
    target_ = std::make_unique<core::Device>(config, sentryOptions);
}

Stepper::~Stepper() = default;

SteppedDevice
Stepper::run(unsigned index)
{
    const std::uint64_t seed = fleet::fleetDeviceSeed(options_.seed, index);
    SteppedDevice out;
    std::unique_ptr<core::Device> cold;
    core::Device *device = target_.get();
    if (target_) {
        Tracer::Scope span(tracer_, "hw.fork");
        target_->forkFrom(*options_.templateSnapshot);
        target_->soc().rng().reseed(seed);
    } else {
        Tracer::Scope span(tracer_, "hw.boot");
        const auto [config, sentryOptions] =
            deviceConfig(scenario_, options_, seed);
        cold = std::make_unique<core::Device>(config, sentryOptions);
        cold->sentry().registerCryptoProviders();
        device = cold.get();
    }
    DeviceRun run(scenario_, options_, tracer_, *device, seed);
    try {
        run.run(out);
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    run.readResults(out);
    out.dirtyPages = device->soc().dram().dirtyPages();
    if (cold) {
        // Tear-down of a cold-booted stack is part of its host cost.
        Tracer::Scope span(tracer_, "hw.teardown");
        cold.reset();
    }
    return out;
}

} // namespace perfbench

namespace perfbench
{

std::string
simDifference(const SteppedDevice &stepped,
              const fleet::DeviceResult &runner)
{
    const std::pair<const char *, std::pair<std::uint64_t, std::uint64_t>>
        fields[] = {
            {"sim cycles", {stepped.simCycles, runner.simCycles}},
            {"faults", {stepped.faults, runner.faultsServiced}},
            {"bytes encrypted on lock",
             {stepped.bytesEncrypted, runner.bytesEncryptedOnLock}},
            {"bytes decrypted on demand",
             {stepped.bytesDecryptedOnDemand, runner.bytesDecryptedOnDemand}},
            {"bytes decrypted eagerly",
             {stepped.bytesDecryptedEager, runner.bytesDecryptedEager}},
            {"l2 hits", {stepped.l2Hits, runner.l2Hits}},
            {"l2 misses", {stepped.l2Misses, runner.l2Misses}},
            {"bus reads", {stepped.busReads, runner.busReads}},
            {"bus writes", {stepped.busWrites, runner.busWrites}},
            {"audits", {stepped.audits, runner.auditsRun}},
        };
    for (const auto &[what, values] : fields) {
        if (values.first != values.second)
            return std::string(what) + ": stepped " +
                   std::to_string(values.first) + ", runner " +
                   std::to_string(values.second);
    }
    return "";
}

} // namespace perfbench
