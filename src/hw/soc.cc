#include "hw/soc.hh"

#include <cstring>

#include "common/logging.hh"

namespace sentry::hw
{

namespace
{

/** Mixed into the device seed to provision the TrustZone fuse. */
constexpr std::uint64_t FUSE_SALT = 0xf05e0000ULL;

} // namespace

MemorySystem::MemorySystem(SimClock &clock, Iram &iram, L2Cache &l2,
                           MemTiming timing)
    : clock_(clock), iram_(iram), l2_(l2), timing_(timing)
{}

bool
MemorySystem::isIram(PhysAddr addr) const
{
    return addr >= IRAM_BASE && addr < IRAM_BASE + iram_.size();
}

void
MemorySystem::read(PhysAddr addr, void *buf, std::size_t len)
{
    auto *out = static_cast<std::uint8_t *>(buf);
    while (len > 0) {
        const PhysAddr lineEnd =
            alignDown(addr, CACHE_LINE_SIZE) + CACHE_LINE_SIZE;
        const std::size_t chunk =
            std::min<std::size_t>(len, lineEnd - addr);
        if (isIram(addr)) {
            iram_.read(addr - IRAM_BASE, out, chunk);
            clock_.advance(timing_.iramAccessCycles);
        } else if (l2_.cacheable(addr)) {
            l2_.read(addr, out, chunk);
        } else {
            panic("MemorySystem read at unmapped 0x%llx",
                  static_cast<unsigned long long>(addr));
        }
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
MemorySystem::write(PhysAddr addr, const void *buf, std::size_t len)
{
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (len > 0) {
        const PhysAddr lineEnd =
            alignDown(addr, CACHE_LINE_SIZE) + CACHE_LINE_SIZE;
        const std::size_t chunk =
            std::min<std::size_t>(len, lineEnd - addr);
        if (isIram(addr)) {
            iram_.write(addr - IRAM_BASE, in, chunk);
            clock_.advance(timing_.iramAccessCycles);
        } else if (l2_.cacheable(addr)) {
            l2_.write(addr, in, chunk);
        } else {
            panic("MemorySystem write at unmapped 0x%llx",
                  static_cast<unsigned long long>(addr));
        }
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

std::uint32_t
MemorySystem::read32(PhysAddr addr)
{
    std::uint32_t value;
    read(addr, &value, sizeof(value));
    return value;
}

void
MemorySystem::write32(PhysAddr addr, std::uint32_t value)
{
    write(addr, &value, sizeof(value));
}

void
MemorySystem::fill(PhysAddr addr, std::uint8_t value, std::size_t len)
{
    std::uint8_t chunk[CACHE_LINE_SIZE];
    std::memset(chunk, value, sizeof(chunk));
    while (len > 0) {
        const std::size_t n =
            std::min<std::size_t>(len, CACHE_LINE_SIZE -
                                           (addr % CACHE_LINE_SIZE));
        write(addr, chunk, n);
        addr += n;
        len -= n;
    }
}

void
MemorySystem::copy(PhysAddr dst, PhysAddr src, std::size_t len)
{
    std::uint8_t buffer[CACHE_LINE_SIZE];
    // memmove semantics: when the destination overlaps the source from
    // above, a forward chunked copy would re-read bytes it already
    // overwrote — walk the chunks backward instead. Non-overlapping
    // copies keep the original forward chunking bit-for-bit.
    if (dst > src && dst < src + len) {
        PhysAddr srcEnd = src + len;
        PhysAddr dstEnd = dst + len;
        while (len > 0) {
            const std::size_t n =
                std::min<std::size_t>(len, CACHE_LINE_SIZE);
            srcEnd -= n;
            dstEnd -= n;
            read(srcEnd, buffer, n);
            write(dstEnd, buffer, n);
            len -= n;
        }
        return;
    }
    while (len > 0) {
        const std::size_t n = std::min<std::size_t>(len, CACHE_LINE_SIZE);
        read(src, buffer, n);
        write(dst, buffer, n);
        src += n;
        dst += n;
        len -= n;
    }
}

Soc::Soc(const PlatformConfig &config)
    : config_(config), clock_(config.cpuFreqHz), rng_(config.seed),
      energy_(config.energy, config.batteryJoules), dram_(config.dramSize),
      iram_(config.iramSize),
      tz_(config.secureWorldAvailable, config.seed ^ FUSE_SALT),
      l2_(clock_, bus_, tz_, DRAM_BASE, config.dramSize, config.l2Size,
          config.l2Ways, config.timing.l2),
      dma_(clock_, bus_, iram_, tz_), cpu_(clock_), firmware_(config.boot),
      memory_(clock_, iram_, l2_, config.timing)
{
    trace_.setClock(&clock_);
    dram_.setTraceEngine(&trace_);
    iram_.setTraceEngine(&trace_);
    bus_.setTraceEngine(&trace_);
    l2_.setTraceEngine(&trace_);
    dma_.setTraceEngine(&trace_);
    energy_.setTraceEngine(&trace_);

    bus_.attach(&dram_, DRAM_BASE, dram_.size(), "dram");
    dma_.attachDevice(&uart_, UART_DEBUG_PORT, UART_DEBUG_PORT_SIZE,
                      "uart-debug");
    dma_.attachDevice(&nic_, NIC_TX_FIFO,
                      (NIC_RX_FIFO + NIC_RX_FIFO_SIZE) - NIC_TX_FIFO,
                      "nic");

    cpu_.setMemoryPort([this](PhysAddr addr, const std::uint8_t *buf,
                              std::size_t len) {
        memory_.write(addr, buf, len);
    });

    if (config.hasCryptoAccel) {
        accel_ =
            std::make_unique<CryptoAccelerator>(clock_, energy_,
                                                config.accel);
        accel_->setTraceEngine(&trace_);
    }
    memCrypto_ = std::make_unique<MemCryptoEngine>(clock_, energy_);
    memCrypto_->setTraceEngine(&trace_);
}

SocSnapshot
Soc::snapshot() const
{
    return SocSnapshot{
        .platformName = config_.name,
        .dramSize = dram_.size(),
        .iramSize = iram_.size(),
        .l2Size = l2_.size(),
        .l2Ways = l2_.ways(),
        .dram = dram_.snapshotImage(),
        .iram = iram_.snapshotImage(),
        .l2 = l2_.forkState(),
        .state = {
            .clockNow = clock_.now(),
            .rng = rng_.state(),
            .bus = bus_.stats(),
            .energy = energy_.forkState(),
            .trustzone = tz_.forkState(),
            .dma = dma_.forkState(),
            .uart = uart_.forkState(),
            .nic = nic_.forkState(),
            .cpu = cpu_.forkState(),
            .accel = accel_ != nullptr ? accel_->forkState()
                                       : CryptoAccelerator::State{},
            .memCrypto = memCrypto_->forkState(),
        },
    };
}

void
Soc::forkFrom(const SocSnapshot &snap)
{
    if (snap.platformName != config_.name || snap.dramSize != dram_.size() ||
        snap.iramSize != iram_.size() || snap.l2Size != l2_.size() ||
        snap.l2Ways != l2_.ways())
        fatal("Soc::forkFrom: snapshot of platform '%s' does not match "
              "target '%s' geometry",
              snap.platformName.c_str(), config_.name.c_str());
    const SocState &state = snap.state;
    if (state.accel != CryptoAccelerator::State{} && accel_ == nullptr)
        fatal("Soc::forkFrom: snapshot has crypto-accelerator state but "
              "the target platform has none");

    dram_.adoptImage(snap.dram);
    iram_.adoptImage(snap.iram);
    clock_.reset();
    clock_.advance(state.clockNow);
    rng_.setState(state.rng);
    energy_.restoreForkState(state.energy);
    bus_.restoreStats(state.bus);
    tz_.restoreForkState(state.trustzone);
    l2_.restoreForkState(snap.l2);
    dma_.restoreForkState(state.dma);
    uart_.restoreForkState(state.uart);
    nic_.restoreForkState(state.nic);
    cpu_.restoreForkState(state.cpu);
    if (accel_ != nullptr)
        accel_->restoreForkState(state.accel);
    memCrypto_->restoreForkState(state.memCrypto);
}

void
Soc::reseed(std::uint64_t seed)
{
    config_.seed = seed;
    rng_.reseed(seed);
    tz_.provisionFuse(seed ^ FUSE_SALT);
}

void
Soc::powerCycle(double off_seconds, double celsius)
{
    dram_.powerLoss(off_seconds, celsius, rng_);
    // The boot ROM zeroes iRAM before anything reads it, so its decay
    // only advances the stream.
    iram_.skipPowerLoss(off_seconds, celsius, rng_);
    cpu_.zeroRegisters();
    firmware_.coldBoot(dram_, iram_, l2_, rng_);
}

void
Soc::warmReboot()
{
    cpu_.zeroRegisters();
    firmware_.warmBoot(dram_, l2_, rng_);
}

void
Soc::chargeCpuSeconds(double seconds)
{
    clock_.advanceSeconds(seconds);
}

} // namespace sentry::hw
