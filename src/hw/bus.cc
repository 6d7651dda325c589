#include "hw/bus.hh"

#include "common/logging.hh"

namespace sentry::hw
{

void
Bus::attach(BusTarget *target, PhysAddr base, std::size_t size,
            std::string name)
{
    for (const auto &m : mappings_) {
        const bool overlaps = base < m.base + m.size && m.base < base + size;
        if (overlaps) {
            panic("bus mapping \"%s\" overlaps \"%s\"", name.c_str(),
                  m.name.c_str());
        }
    }
    mappings_.push_back({target, base, size, std::move(name)});
}

bool
Bus::covers(PhysAddr addr, std::size_t len) const
{
    for (const auto &m : mappings_) {
        if (addr >= m.base && addr + len <= m.base + m.size)
            return true;
    }
    return false;
}

const Bus::Mapping &
Bus::route(PhysAddr addr, std::size_t len) const
{
    if (lastRoute_ < mappings_.size()) {
        const Mapping &m = mappings_[lastRoute_];
        if (addr >= m.base && addr + len <= m.base + m.size)
            return m;
    }
    for (std::size_t i = 0; i < mappings_.size(); ++i) {
        const Mapping &m = mappings_[i];
        if (addr >= m.base && addr + len <= m.base + m.size) {
            lastRoute_ = i;
            return m;
        }
    }
    panic("bus access to unmapped address 0x%llx (+%zu)",
          static_cast<unsigned long long>(addr), len);
}

void
Bus::read(PhysAddr addr, std::uint8_t *buf, std::size_t len,
          BusInitiator initiator)
{
    const Mapping &m = route(addr, len);
    m.target->busRead(addr - m.base, buf, len);
    ++stats_.reads;
    stats_.readBytes += len;
    if (trace_ != nullptr &&
        trace_->enabled(probe::TraceKind::BusTransfer)) {
        probe::BusTransfer event{addr, static_cast<std::uint32_t>(len),
                                 false, initiator, buf, false, 0};
        trace_->emit(event);
    }
}

void
Bus::write(PhysAddr addr, const std::uint8_t *buf, std::size_t len,
           BusInitiator initiator)
{
    const Mapping &m = route(addr, len);
    m.target->busWrite(addr - m.base, buf, len);
    ++stats_.writes;
    stats_.writeBytes += len;
    if (trace_ == nullptr || !trace_->enabled(probe::TraceKind::BusTransfer))
        return;
    probe::BusTransfer event{addr, static_cast<std::uint32_t>(len), true,
                             initiator, buf, false, 0};
    trace_->emit(event);
    // A glitched interconnect may replay the transaction (a subscriber
    // filled event.extraWrites). Replays go to the same target and fire
    // again with `duplicate` set, but their responses are ignored — a
    // duplicate must not trigger further duplication.
    for (unsigned i = 0; i < event.extraWrites; ++i) {
        m.target->busWrite(addr - m.base, buf, len);
        ++stats_.writes;
        stats_.writeBytes += len;
        probe::BusTransfer replay{addr, static_cast<std::uint32_t>(len),
                                  true, initiator, buf, true, 0};
        trace_->emit(replay);
    }
}

} // namespace sentry::hw
