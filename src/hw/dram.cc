#include "hw/dram.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sentry::hw
{

namespace
{

/** Fire one probe::MemAccess for a DRAM cell-array access. */
inline void
traceDramOp(probe::TraceEngine *trace, bool is_write, PhysAddr offset,
            std::size_t len)
{
    if (trace == nullptr || !trace->enabled(probe::TraceKind::MemAccess))
        return;
    probe::MemAccess event{probe::MemAccess::Device::Dram, is_write, offset,
                           len};
    trace->emit(event);
}

} // namespace

Dram::Dram(std::size_t size) : data_(size), remanence_(MemoryTech::Dram)
{
    if (size == 0 || size % PAGE_SIZE != 0)
        fatal("DRAM size must be a non-zero multiple of the page size");
}

void
Dram::busRead(PhysAddr offset, std::uint8_t *buf, std::size_t len)
{
    if (offset + len > data_.size())
        panic("DRAM read out of range: 0x%llx (+%zu)",
              static_cast<unsigned long long>(offset), len);
    traceDramOp(trace_, false, offset, len);
    data_.read(offset, buf, len);
}

void
Dram::busWrite(PhysAddr offset, const std::uint8_t *buf, std::size_t len)
{
    if (offset + len > data_.size())
        panic("DRAM write out of range: 0x%llx (+%zu)",
              static_cast<unsigned long long>(offset), len);
    data_.write(offset, buf, len);
    traceDramOp(trace_, true, offset, len);
}

void
Dram::writeCells(PhysAddr offset, const std::uint8_t *buf, std::size_t len)
{
    if (offset + len > data_.size())
        panic("DRAM cell write out of range: 0x%llx (+%zu)",
              static_cast<unsigned long long>(offset), len);
    data_.write(offset, buf, len);
}

void
Dram::powerLoss(double off_seconds, double celsius, Rng &rng)
{
    remanence_.decay(data_, off_seconds, celsius, rng);
    // Power loss drains every cell: any accumulated activation stress
    // is gone along with the charge.
    activations_.clear();
}

void
Dram::recordActivations(PhysAddr offset, std::uint32_t n)
{
    if (offset >= data_.size())
        panic("DRAM activation out of range: 0x%llx",
              static_cast<unsigned long long>(offset));
    const std::size_t row = geometry_.globalRow(offset);
    if (activations_.size() <= row)
        activations_.resize(geometry_.rowCount(data_.size()), 0);
    const std::uint64_t sum =
        static_cast<std::uint64_t>(activations_[row]) + n;
    activations_[row] = sum > UINT32_MAX ? UINT32_MAX
                                         : static_cast<std::uint32_t>(sum);
}

std::uint32_t
Dram::activationCount(std::size_t global_row) const
{
    return global_row < activations_.size() ? activations_[global_row] : 0;
}

void
Dram::refreshRows()
{
    activations_.clear();
}

std::vector<FlippedBit>
Dram::disturbAdjacentRows(PhysAddr aggressor_offset, Rng &rng,
                          const DisturbParams &params)
{
    std::vector<FlippedBit> flips;
    if (aggressor_offset >= data_.size())
        return flips;
    const std::size_t row = geometry_.globalRow(aggressor_offset);
    const std::uint32_t count = activationCount(row);
    if (count <= params.activationThreshold ||
        params.activationThreshold == 0)
        return flips;

    // Linear ramp from 0 at the threshold to flipChance at 2x it.
    const double overdrive =
        static_cast<double>(count - params.activationThreshold) /
        static_cast<double>(params.activationThreshold);
    const double chance =
        params.flipChance * (overdrive < 1.0 ? overdrive : 1.0);

    // Physically adjacent rows in the same bank are +-banks global
    // rows away (see DramGeometry).
    const std::size_t stride = geometry_.banks;
    const std::size_t row_count = geometry_.rowCount(data_.size());
    const std::size_t neighbours[2] = {row >= stride ? row - stride
                                                     : row_count,
                                       row + stride};
    for (const std::size_t victim : neighbours) {
        if (victim >= row_count)
            continue;
        const PhysAddr base = victim * geometry_.rowBytes;
        const PhysAddr end =
            std::min<PhysAddr>(base + geometry_.rowBytes, data_.size());
        for (PhysAddr site = base; site < end;
             site += params.siteStride) {
            if (!rng.chance(chance))
                continue;
            const unsigned bit =
                static_cast<unsigned>(rng.below(8));
            std::uint8_t byte = 0;
            data_.read(site, &byte, 1);
            byte = static_cast<std::uint8_t>(byte ^ (1u << bit));
            data_.write(site, &byte, 1);
            flips.push_back(FlippedBit{site, bit});
        }
    }
    return flips;
}

} // namespace sentry::hw
