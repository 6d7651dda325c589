/**
 * @file
 * The assembled System-on-Chip plus its off-chip DRAM: the device the
 * OS, Sentry, and the attack harnesses all run against.
 *
 * MemorySystem is the CPU-side memory port. It routes physical accesses:
 *   - iRAM window  -> on-SoC SRAM, never visible on the external bus;
 *   - DRAM window  -> through the shared L2 cache, which fills/evicts
 *                     over the external (monitorable) bus.
 * DMA traffic takes its own path through DmaController and never touches
 * the cache.
 */

#ifndef SENTRY_HW_SOC_HH
#define SENTRY_HW_SOC_HH

#include <memory>
#include <optional>

#include "common/rng.hh"
#include "common/sim_clock.hh"
#include "common/trace_engine.hh"
#include "common/types.hh"
#include "hw/bus.hh"
#include "hw/cpu.hh"
#include "hw/crypto_accel.hh"
#include "hw/devices.hh"
#include "hw/dma.hh"
#include "hw/dram.hh"
#include "hw/energy.hh"
#include "hw/firmware.hh"
#include "hw/iram.hh"
#include "hw/l2_cache.hh"
#include "hw/mem_crypto_engine.hh"
#include "hw/platform.hh"
#include "hw/trustzone.hh"

namespace sentry::hw
{

/** CPU-side physical memory port (cacheable path). */
class MemorySystem
{
  public:
    MemorySystem(SimClock &clock, Iram &iram, L2Cache &l2,
                 MemTiming timing);

    /** Read @p len bytes from physical address @p addr. */
    void read(PhysAddr addr, void *buf, std::size_t len);

    /** Write @p len bytes to physical address @p addr. */
    void write(PhysAddr addr, const void *buf, std::size_t len);

    /** @return one 32-bit little-endian word. */
    std::uint32_t read32(PhysAddr addr);

    /** Write one 32-bit little-endian word. */
    void write32(PhysAddr addr, std::uint32_t value);

    /** Fill [addr, addr+len) with @p value. */
    void fill(PhysAddr addr, std::uint8_t value, std::size_t len);

    /**
     * Copy @p len bytes within simulated physical memory. Overlapping
     * ranges are handled with memmove semantics (the destination always
     * receives the original source bytes).
     */
    void copy(PhysAddr dst, PhysAddr src, std::size_t len);

    /** @return true if @p addr lies in the iRAM window. */
    bool isIram(PhysAddr addr) const;

  private:
    SimClock &clock_;
    Iram &iram_;
    L2Cache &l2_;
    MemTiming timing_;
};

/**
 * The Soc's small simulated state: the clock, the RNG stream, the bus
 * counters and each component's State, copied by value. The memories
 * and the L2 array fork by their own delta restores and stay outside.
 */
struct SocState
{
    Cycles clockNow = 0;
    Rng::State rng{};
    BusStats bus;
    EnergyModel::State energy;
    TrustZone::State trustzone;
    DmaController::State dma;
    UartDevice::State uart;
    NicDevice::State nic;
    Cpu::State cpu;
    CryptoAccelerator::State accel; //!< default when absent
    MemCryptoEngine::State memCrypto;

    bool operator==(const SocState &) const = default;
};

/**
 * Immutable checkpoint of a whole Soc, produced by Soc::snapshot().
 *
 * The big cell arrays (DRAM, iRAM) are ref-counted COW images — forks
 * share their pages read-only and privatize on first write — and the
 * L2 array is one immutable image copied into each fork's controller.
 * The small per-device state is one SocState, copied by value.
 * Wiring (trace engines, bus mappings, memory ports) is never part of
 * a snapshot: it belongs to each device's own construction.
 *
 * TraceEngine counters follow the "reset by default, owner decides"
 * policy: the engine itself holds no counters (they live in the
 * attached CounterSink, which is per-device wiring), so a forked device
 * starts with whatever sink its owner attaches — typically fresh zeros.
 */
struct SocSnapshot
{
    /** Geometry fingerprint; forkFrom() refuses a mismatched target. */
    std::string platformName;
    std::size_t dramSize = 0;
    std::size_t iramSize = 0;
    std::size_t l2Size = 0;
    unsigned l2Ways = 0;

    std::shared_ptr<const CowImage> dram;
    std::shared_ptr<const CowImage> iram;
    L2Cache::ForkState l2;
    SocState state;
};

/** The simulated device. */
class Soc
{
  public:
    explicit Soc(const PlatformConfig &config);

    const PlatformConfig &config() const { return config_; }

    SimClock &clock() { return clock_; }
    Rng &rng() { return rng_; }
    EnergyModel &energy() { return energy_; }
    Dram &dram() { return dram_; }
    const Dram &dram() const { return dram_; }
    Iram &iram() { return iram_; }
    const Iram &iram() const { return iram_; }
    Bus &bus() { return bus_; }
    TrustZone &trustzone() { return tz_; }
    L2Cache &l2() { return l2_; }
    DmaController &dma() { return dma_; }
    UartDevice &uart() { return uart_; }
    NicDevice &nic() { return nic_; }
    Cpu &cpu() { return cpu_; }
    Firmware &firmware() { return firmware_; }
    MemorySystem &memory() { return memory_; }

    /** @return the crypto engine, or nullptr on platforms without one. */
    CryptoAccelerator *accel() { return accel_ ? accel_.get() : nullptr; }

    /** @return the GPU-like bulk memory-crypto engine (every platform
     * has one; it sits idle unless the MemShield backend keys it). */
    MemCryptoEngine &memCrypto() { return *memCrypto_; }

    /**
     * Const materialized view of the DRAM cell array, for tests and
     * benchmarks: it copies every page not yet private (4-16 MiB). No
     * library path calls it; searches go through dram().cells() and
     * sizes through dram().size() or dramEnd().
     */
    std::span<const std::uint8_t> dramRaw() const { return dram_.raw(); }

    /** Const materialized view of the iRAM cell array (tests and
     * benchmarks, as dramRaw()). */
    std::span<const std::uint8_t> iramRaw() const { return iram_.raw(); }

    /** Physical address of the first DRAM byte. */
    PhysAddr dramBase() const { return DRAM_BASE; }

    /** One past the last DRAM physical address. */
    PhysAddr dramEnd() const { return DRAM_BASE + dram_.size(); }

    /**
     * Cut power for @p off_seconds at @p celsius, then run the cold-boot
     * firmware path. Simulated time is NOT advanced (the device is off).
     */
    void powerCycle(double off_seconds, double celsius = 22.0);

    /** Reboot without power loss (the OS-reboot cold-boot variant). */
    void warmReboot();

    /**
     * Charge CPU work of @p seconds to the clock (models computation
     * this simulation does not execute instruction-by-instruction).
     */
    void chargeCpuSeconds(double seconds);

    /**
     * The machine's single observation spine: every device of this Soc
     * fires its trace points here. Subscribe a probe::Subscriber (the
     * fault injector, a bus monitor, a timeline, ...) to observe or
     * perturb the machine, or attach a CounterSink to count it; with
     * neither, every emission site early-outs at one pointer + bit test.
     */
    probe::TraceEngine &trace() { return trace_; }
    const probe::TraceEngine &trace() const { return trace_; }

    /** Checkpoint the entire device state (see SocSnapshot). Cheap: the
     * cell arrays are frozen copy-on-write, not copied. */
    SocSnapshot snapshot() const;

    /**
     * Overwrite this device's whole state with @p snap. The target must
     * have been constructed from the same platform geometry (fatal
     * otherwise). Invalidates any outstanding dramRaw()/iramRaw()
     * spans. Wiring — trace subscribers, hooks, bus mappings — is
     * untouched; only simulated state is replaced.
     */
    void forkFrom(const SocSnapshot &snap);

    /**
     * Re-derive everything the construction seed sets — the RNG
     * stream, the TrustZone fuse and config().seed — from @p seed, as
     * if this Soc had been built with it. A recycled fleet device calls
     * it after its fork.
     */
    void reseed(std::uint64_t seed);

  private:
    // Declared first so it is destroyed last: devices hold raw pointers
    // to it, and subscribers detach through it in their destructors.
    probe::TraceEngine trace_;
    PlatformConfig config_;
    SimClock clock_;
    Rng rng_;
    EnergyModel energy_;
    Dram dram_;
    Iram iram_;
    Bus bus_;
    TrustZone tz_;
    L2Cache l2_;
    DmaController dma_;
    UartDevice uart_;
    NicDevice nic_;
    Cpu cpu_;
    Firmware firmware_;
    MemorySystem memory_;
    std::unique_ptr<CryptoAccelerator> accel_;
    std::unique_ptr<MemCryptoEngine> memCrypto_;
};

} // namespace sentry::hw

#endif // SENTRY_HW_SOC_HH
