#include "hw/devices.hh"

#include <cstring>
#include <utility>

namespace sentry::hw
{

DmaStatus
UartDevice::dmaWrite(PhysAddr offset, const std::uint8_t *buf,
                     std::size_t len)
{
    (void)offset; // the whole window aliases the loopback FIFO
    state_.loopback.insert(state_.loopback.end(), buf, buf + len);
    return DmaStatus::Ok;
}

DmaStatus
UartDevice::dmaRead(PhysAddr offset, std::uint8_t *buf, std::size_t len)
{
    (void)offset;
    // The debug port loops written data back out of the serial channel.
    std::vector<std::uint8_t> &fifo = state_.loopback;
    const std::size_t avail = std::min(len, fifo.size());
    std::memcpy(buf, fifo.data(), avail);
    std::memset(buf + avail, 0, len - avail);
    fifo.erase(fifo.begin(), fifo.begin() + static_cast<long>(avail));
    return DmaStatus::Ok;
}

std::vector<std::uint8_t>
UartDevice::drainLoopback()
{
    return std::exchange(state_.loopback, {});
}

DmaStatus
NicDevice::dmaWrite(PhysAddr offset, const std::uint8_t *buf, std::size_t len)
{
    if (offset >= NIC_RX_FIFO - NIC_TX_FIFO) {
        // Writing into the RX window is not something hardware allows.
        return DmaStatus::BadAddress;
    }
    (void)buf; // transmitted data leaves the system
    state_.bytesTransmitted += len;
    return DmaStatus::Ok;
}

DmaStatus
NicDevice::dmaRead(PhysAddr offset, std::uint8_t *buf, std::size_t len)
{
    if (offset < NIC_RX_FIFO - NIC_TX_FIFO) {
        // The transmit FIFO cannot be DMA-ed back in (paper 4.2).
        return DmaStatus::DeviceNotReadable;
    }
    std::vector<std::uint8_t> &fifo = state_.rxFifo;
    const std::size_t avail = std::min(len, fifo.size());
    std::memcpy(buf, fifo.data(), avail);
    std::memset(buf + avail, 0, len - avail);
    fifo.erase(fifo.begin(), fifo.begin() + static_cast<long>(avail));
    return DmaStatus::Ok;
}

void
NicDevice::receiveFrame(std::vector<std::uint8_t> frame)
{
    state_.rxFifo.insert(state_.rxFifo.end(), frame.begin(), frame.end());
}

} // namespace sentry::hw
