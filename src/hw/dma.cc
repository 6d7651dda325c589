#include "hw/dma.hh"

#include <memory>

#include "common/logging.hh"
#include "hw/iram.hh"
#include "hw/trustzone.hh"

namespace sentry::hw
{

namespace
{
/** DMA engine moves roughly one byte per CPU cycle in this model. */
constexpr Cycles dmaCyclesPerByte = 1;
} // namespace

DmaController::DmaController(SimClock &clock, Bus &bus, Iram &iram,
                             TrustZone &tz)
    : clock_(clock), bus_(bus), iram_(iram), tz_(tz)
{}

void
DmaController::attachDevice(DmaDevice *device, PhysAddr base,
                            std::size_t size, std::string name)
{
    devices_.push_back({device, base, size, std::move(name)});
}

const DmaController::DeviceMapping *
DmaController::findDevice(PhysAddr addr, std::size_t len) const
{
    for (const auto &m : devices_) {
        if (addr >= m.base && addr + len <= m.base + m.size)
            return &m;
    }
    return nullptr;
}

bool
DmaController::isMemory(PhysAddr addr, std::size_t len) const
{
    const bool inIram =
        addr >= IRAM_BASE && addr + len <= IRAM_BASE + iram_.size();
    return inIram || bus_.covers(addr, len);
}

DmaStatus
DmaController::readMemory(PhysAddr addr, std::uint8_t *buf, std::size_t len)
{
    if (tz_.dmaDenied(addr, len))
        return DmaStatus::DeniedByTrustZone;

    if (addr >= IRAM_BASE && addr + len <= IRAM_BASE + iram_.size()) {
        iram_.read(addr - IRAM_BASE, buf, len);
    } else if (bus_.covers(addr, len)) {
        bus_.read(addr, buf, len, BusInitiator::Dma);
    } else {
        return DmaStatus::BadAddress;
    }

    clock_.advance(len * dmaCyclesPerByte);
    state_.bytesTransferred += len;
    if (trace_ != nullptr && trace_->enabled(probe::TraceKind::DmaBurst)) {
        probe::DmaBurst event{addr, len, false};
        trace_->emit(event);
    }
    return DmaStatus::Ok;
}

DmaStatus
DmaController::writeMemory(PhysAddr addr, const std::uint8_t *buf,
                           std::size_t len)
{
    if (tz_.dmaDenied(addr, len))
        return DmaStatus::DeniedByTrustZone;

    if (addr >= IRAM_BASE && addr + len <= IRAM_BASE + iram_.size()) {
        iram_.write(addr - IRAM_BASE, buf, len);
    } else if (bus_.covers(addr, len)) {
        bus_.write(addr, buf, len, BusInitiator::Dma);
    } else {
        return DmaStatus::BadAddress;
    }

    clock_.advance(len * dmaCyclesPerByte);
    state_.bytesTransferred += len;
    if (trace_ != nullptr && trace_->enabled(probe::TraceKind::DmaBurst)) {
        probe::DmaBurst event{addr, len, true};
        trace_->emit(event);
    }
    return DmaStatus::Ok;
}

DmaStatus
DmaController::transfer(PhysAddr src, PhysAddr dst, std::size_t len)
{
    const DeviceMapping *srcDev = findDevice(src, len);
    const DeviceMapping *dstDev = findDevice(dst, len);

    std::vector<std::uint8_t> staging(len);

    if (srcDev != nullptr) {
        const DmaStatus status =
            srcDev->device->dmaRead(src - srcDev->base, staging.data(), len);
        if (status != DmaStatus::Ok)
            return status;
    } else if (isMemory(src, len)) {
        const DmaStatus status = readMemory(src, staging.data(), len);
        if (status != DmaStatus::Ok)
            return status;
    } else {
        return DmaStatus::BadAddress;
    }

    if (dstDev != nullptr) {
        return dstDev->device->dmaWrite(dst - dstDev->base, staging.data(),
                                        len);
    }
    if (isMemory(dst, len))
        return writeMemory(dst, staging.data(), len);
    return DmaStatus::BadAddress;
}

} // namespace sentry::hw
