#include "hw/iram.hh"

#include "common/logging.hh"

namespace sentry::hw
{

namespace
{

/** Fire one probe::MemAccess for an iRAM cell-array access. */
inline void
traceIramOp(probe::TraceEngine *trace, bool is_write, PhysAddr offset,
            std::size_t len)
{
    if (trace == nullptr || !trace->enabled(probe::TraceKind::MemAccess))
        return;
    probe::MemAccess event{probe::MemAccess::Device::Iram, is_write, offset,
                           len};
    trace->emit(event);
}

} // namespace

Iram::Iram(std::size_t size) : data_(size), remanence_(MemoryTech::Sram)
{
    if (size == 0)
        fatal("iRAM size must be non-zero");
}

void
Iram::checkRange(PhysAddr offset, std::size_t len) const
{
    if (offset + len > data_.size())
        panic("iRAM access out of range: 0x%llx (+%zu)",
              static_cast<unsigned long long>(offset), len);
}

void
Iram::read(PhysAddr offset, std::uint8_t *buf, std::size_t len) const
{
    checkRange(offset, len);
    traceIramOp(trace_, false, offset, len);
    data_.read(offset, buf, len);
}

void
Iram::write(PhysAddr offset, const std::uint8_t *buf, std::size_t len)
{
    checkRange(offset, len);
    data_.write(offset, buf, len);
    traceIramOp(trace_, true, offset, len);
}

void
Iram::writeCells(PhysAddr offset, const std::uint8_t *buf, std::size_t len)
{
    checkRange(offset, len);
    data_.write(offset, buf, len);
}

void
Iram::powerLoss(double off_seconds, double celsius, Rng &rng)
{
    remanence_.decay(data_, off_seconds, celsius, rng);
}

void
Iram::skipPowerLoss(double off_seconds, double celsius, Rng &rng) const
{
    remanence_.skipDecay(data_.size(), off_seconds, celsius, rng);
}

void
Iram::zeroize()
{
    data_.zeroAll();
}

} // namespace sentry::hw
