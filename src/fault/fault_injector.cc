#include "fault/fault_injector.hh"

#include <cstdio>
#include <sstream>

#include "hw/soc.hh"

namespace sentry::fault
{

namespace
{

/** SplitMix64 step: advances @p state and returns the next output. */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

FaultInjector::FaultInjector(FaultSchedule schedule, std::uint64_t seed)
    : schedule_(std::move(schedule))
{
    streams_.reserve(schedule_.faults.size());
    for (std::size_t i = 0; i < schedule_.faults.size(); ++i) {
        // Decorrelate the per-spec streams: identical specs at
        // different schedule positions corrupt different bits.
        std::uint64_t state =
            seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(i) + 1));
        // Burn one output so the stored state is already mixed.
        splitmix64(state);
        streams_.push_back(state);
    }
}

FaultInjector::~FaultInjector()
{
    disarm();
}

void
FaultInjector::arm(hw::Soc &soc)
{
    soc_ = &soc;
    soc.trace().subscribe(this,
                          probe::maskOf(probe::TraceKind::MemAccess) |
                              probe::maskOf(probe::TraceKind::BusTransfer) |
                              probe::maskOf(probe::TraceKind::CacheEvent) |
                              probe::maskOf(probe::TraceKind::KcryptdOp));
}

void
FaultInjector::disarm()
{
    if (soc_ != nullptr) {
        soc_->trace().unsubscribe(this);
        soc_ = nullptr;
    }
}

bool
FaultInjector::due(const FaultSpec &spec, std::uint64_t ordinal)
{
    if (ordinal == spec.after)
        return true;
    return spec.every != 0 && ordinal > spec.after &&
           (ordinal - spec.after) % spec.every == 0;
}

std::uint64_t
FaultInjector::draw(unsigned index)
{
    return splitmix64(streams_[index]);
}

void
FaultInjector::record(unsigned index, std::uint64_t ordinal)
{
    ++stats_.firings;
    firings_.push_back({index, schedule_.faults[index].kind, ordinal});
}

void
FaultInjector::fireDramBitFlip(const FaultSpec &spec, unsigned index)
{
    hw::Dram &dram = soc_->dram();
    for (unsigned i = 0; i < spec.count; ++i) {
        const std::uint64_t r = draw(index);
        const PhysAddr offset = r % dram.size();
        std::uint8_t cell = 0;
        dram.cells().read(offset, &cell, 1);
        cell ^= static_cast<std::uint8_t>(1u << ((r >> 56) & 7));
        dram.writeCells(offset, &cell, 1);
        ++stats_.bitFlips;
    }
}

void
FaultInjector::fireIramBitFlip(const FaultSpec &spec, unsigned index)
{
    auto raw = soc_->iram().raw();
    for (unsigned i = 0; i < spec.count; ++i) {
        const std::uint64_t r = draw(index);
        raw[r % raw.size()] ^= static_cast<std::uint8_t>(1u << ((r >> 56) & 7));
        ++stats_.bitFlips;
    }
}

void
FaultInjector::fireLockdownGlitch(const FaultSpec &spec, unsigned index)
{
    // Clear up to `count` of the currently-set lockdown bits, chosen
    // from the spec's stream. An SEU flips physical register cells; it
    // does not consult TrustZone.
    std::uint32_t mask = soc_->l2().lockdownReg();
    std::uint32_t clear = 0;
    for (unsigned i = 0; i < spec.count && mask != 0; ++i) {
        std::vector<unsigned> setBits;
        for (unsigned bit = 0; bit < 32; ++bit) {
            if (mask & (1u << bit))
                setBits.push_back(bit);
        }
        const unsigned victim =
            setBits[draw(index) % setBits.size()];
        clear |= 1u << victim;
        mask &= ~(1u << victim);
        ++stats_.lockdownBitsCleared;
    }
    if (clear != 0)
        soc_->l2().glitchLockdownBits(clear);
}

void
FaultInjector::fireDmaBurst(const FaultSpec &spec, unsigned index)
{
    // A peripheral bus master reads a burst of DRAM while the cache is
    // mid-flush. The read itself goes through the normal DMA path (and
    // so respects TrustZone windows and shows up on the bus).
    const std::size_t dramSize = soc_->dram().size();
    const std::size_t len = spec.bytes < dramSize ? spec.bytes : dramSize;
    const std::uint64_t r = draw(index);
    const PhysAddr offset =
        (dramSize > len) ? (r % (dramSize - len)) & ~PhysAddr{63} : 0;
    std::vector<std::uint8_t> buf(len);
    (void)soc_->dma().readMemory(soc_->dramBase() + offset, buf.data(), len);
    stats_.dmaBurstBytes += len;
}

void
FaultInjector::onMemAccess(probe::MemAccess &event)
{
    if (event.device == probe::MemAccess::Device::Dram) {
        const std::uint64_t ordinal = ++stats_.dramOps;
        if (firing_ || soc_ == nullptr)
            return;
        for (unsigned i = 0; i < schedule_.faults.size(); ++i) {
            const FaultSpec &spec = schedule_.faults[i];
            if (spec.kind != FaultKind::DramBitFlip || !due(spec, ordinal))
                continue;
            firing_ = true;
            record(i, ordinal);
            fireDramBitFlip(spec, i);
            firing_ = false;
        }
    } else {
        const std::uint64_t ordinal = ++stats_.iramOps;
        if (firing_ || soc_ == nullptr)
            return;
        for (unsigned i = 0; i < schedule_.faults.size(); ++i) {
            const FaultSpec &spec = schedule_.faults[i];
            if (spec.kind != FaultKind::IramBitFlip || !due(spec, ordinal))
                continue;
            firing_ = true;
            record(i, ordinal);
            fireIramBitFlip(spec, i);
            firing_ = false;
        }
    }
}

void
FaultInjector::onBusTransfer(probe::BusTransfer &event)
{
    // Duplicate writes are the bus replaying an effect this injector
    // already requested; counting them would shift every later ordinal.
    if (event.duplicate)
        return;
    if (!event.isWrite) {
        ++stats_.busReads;
        const std::uint64_t ordinal = stats_.busReads + stats_.busWrites;
        if (firing_ || soc_ == nullptr)
            return;
        for (unsigned i = 0; i < schedule_.faults.size(); ++i) {
            const FaultSpec &spec = schedule_.faults[i];
            if (spec.kind != FaultKind::BusDelay || !due(spec, ordinal))
                continue;
            firing_ = true;
            record(i, ordinal);
            soc_->clock().advance(spec.cycles);
            stats_.delayCycles += spec.cycles;
            firing_ = false;
        }
        return;
    }
    const std::uint64_t writeOrdinal = ++stats_.busWrites;
    const std::uint64_t anyOrdinal = stats_.busReads + stats_.busWrites;
    if (firing_ || soc_ == nullptr)
        return;
    unsigned duplicates = 0;
    for (unsigned i = 0; i < schedule_.faults.size(); ++i) {
        const FaultSpec &spec = schedule_.faults[i];
        if (spec.kind == FaultKind::BusDuplicateWrite &&
            due(spec, writeOrdinal)) {
            record(i, writeOrdinal);
            duplicates += spec.count;
            stats_.busDuplicates += spec.count;
        } else if (spec.kind == FaultKind::BusDelay &&
                   due(spec, anyOrdinal)) {
            firing_ = true;
            record(i, anyOrdinal);
            soc_->clock().advance(spec.cycles);
            stats_.delayCycles += spec.cycles;
            firing_ = false;
        }
    }
    // The Bus replays the duplicates itself with the duplicate flag
    // set, so requesting extra writes here cannot cascade.
    event.extraWrites += duplicates;
}

void
FaultInjector::onCacheEvent(probe::CacheEvent &event)
{
    (void)event;
    const std::uint64_t ordinal = ++stats_.l2Writebacks;
    if (firing_ || soc_ == nullptr)
        return;
    for (unsigned i = 0; i < schedule_.faults.size(); ++i) {
        const FaultSpec &spec = schedule_.faults[i];
        if (spec.kind == FaultKind::LockdownGlitch && due(spec, ordinal)) {
            firing_ = true;
            record(i, ordinal);
            fireLockdownGlitch(spec, i);
            firing_ = false;
        } else if (spec.kind == FaultKind::DmaBurst && due(spec, ordinal)) {
            firing_ = true;
            record(i, ordinal);
            fireDmaBurst(spec, i);
            firing_ = false;
        }
    }
}

void
FaultInjector::onKcryptdOp(probe::KcryptdOp &event)
{
    const std::uint64_t ordinal = ++stats_.kcryptdBlocks;
    if (firing_ || soc_ == nullptr)
        return;
    double stall = 0.0;
    for (unsigned i = 0; i < schedule_.faults.size(); ++i) {
        const FaultSpec &spec = schedule_.faults[i];
        if (spec.kind != FaultKind::KcryptdStall || !due(spec, ordinal))
            continue;
        record(i, ordinal);
        stall += spec.seconds;
        stats_.stallSeconds += spec.seconds;
    }
    event.stallSeconds += stall;
}

void
FaultInjector::beginStep()
{
    ++stats_.steps;
}

std::vector<FaultSpec>
FaultInjector::dueStepFaults()
{
    std::vector<FaultSpec> dueSpecs;
    if (soc_ == nullptr)
        return dueSpecs;
    for (unsigned i = 0; i < schedule_.faults.size(); ++i) {
        const FaultSpec &spec = schedule_.faults[i];
        if (spec.kind != FaultKind::PowerGlitch || !due(spec, stats_.steps))
            continue;
        record(i, stats_.steps);
        dueSpecs.push_back(spec);
    }
    return dueSpecs;
}

std::string
FaultInjector::replayDigest() const
{
    std::ostringstream out;
    out << "ops dram:" << stats_.dramOps << " iram:" << stats_.iramOps
        << " busR:" << stats_.busReads << " busW:" << stats_.busWrites
        << " wb:" << stats_.l2Writebacks << " kc:" << stats_.kcryptdBlocks
        << " step:" << stats_.steps;
    char stall[32];
    std::snprintf(stall, sizeof(stall), "%.9g", stats_.stallSeconds);
    out << " | fx flips:" << stats_.bitFlips
        << " dup:" << stats_.busDuplicates
        << " delay:" << stats_.delayCycles << " stall:" << stall
        << " burst:" << stats_.dmaBurstBytes
        << " lockclr:" << stats_.lockdownBitsCleared;
    // Cap the listing: a periodic fault can fire thousands of times and
    // the totals above already pin the full sequence.
    constexpr std::size_t MAX_LISTED = 16;
    out << " | fired";
    for (std::size_t i = 0; i < firings_.size() && i < MAX_LISTED; ++i) {
        const FiringRecord &f = firings_[i];
        out << ' ' << faultKindName(f.kind) << '#' << f.specIndex << '@'
            << f.siteOrdinal;
    }
    if (firings_.size() > MAX_LISTED)
        out << " +" << (firings_.size() - MAX_LISTED) << " more";
    return out.str();
}

} // namespace sentry::fault
