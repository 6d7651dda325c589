/**
 * @file
 * DMA-capable peripherals used in the paper's PL310 validation hunt
 * (section 4.2):
 *
 *   - UartDevice exposes the high-speed serial controller's *debug
 *     loopback port*: data DMA-ed to the port can be read back over the
 *     serial interface. This was the one device the authors found that
 *     lets software observe exactly what a DMA read returned — and is
 *     how we (and they) verify that locked cache lines never appear in
 *     DRAM.
 *   - NicDevice models the network controller whose transmit FIFO is
 *     write-only: data can be DMA-ed *to* it but never read back, which
 *     is why it was useless for the validation experiment.
 */

#ifndef SENTRY_HW_DEVICES_HH
#define SENTRY_HW_DEVICES_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "hw/dma.hh"

namespace sentry::hw
{

/** MMIO window assignments inside the peripheral space. */
constexpr PhysAddr UART_DEBUG_PORT = MMIO_BASE + 0x1000;
constexpr std::size_t UART_DEBUG_PORT_SIZE = 64 * KiB;

constexpr PhysAddr NIC_TX_FIFO = MMIO_BASE + 0x2000'0;
constexpr std::size_t NIC_TX_FIFO_SIZE = 64 * KiB;

constexpr PhysAddr NIC_RX_FIFO = MMIO_BASE + 0x3000'0;
constexpr std::size_t NIC_RX_FIFO_SIZE = 64 * KiB;

/** High-speed serial controller with a loopback debug port. */
class UartDevice : public DmaDevice
{
  public:
    DmaStatus dmaWrite(PhysAddr offset, const std::uint8_t *buf,
                       std::size_t len) override;
    DmaStatus dmaRead(PhysAddr offset, std::uint8_t *buf,
                      std::size_t len) override;

    /**
     * Read back everything the debug port has looped around, draining
     * the buffer — the CPU-side serial read in the validation recipe.
     */
    std::vector<std::uint8_t> drainLoopback();

    /** The looped-back bytes: a fork copies them whole. */
    struct State
    {
        std::vector<std::uint8_t> loopback;

        bool operator==(const State &) const = default;
    };

    State forkState() const { return state_; }
    void restoreForkState(const State &state) { state_ = state; }

  private:
    State state_;
};

/** Network controller: write-only TX FIFO, fillable RX FIFO. */
class NicDevice : public DmaDevice
{
  public:
    DmaStatus dmaWrite(PhysAddr offset, const std::uint8_t *buf,
                       std::size_t len) override;
    DmaStatus dmaRead(PhysAddr offset, std::uint8_t *buf,
                      std::size_t len) override;

    /** Simulation hook: place an incoming frame into the RX FIFO. */
    void receiveFrame(std::vector<std::uint8_t> frame);

    /** @return bytes transmitted so far (the data itself is gone). */
    std::uint64_t bytesTransmitted() const { return state_.bytesTransmitted; }

    /** The RX FIFO and the TX accounting: a fork copies them whole. */
    struct State
    {
        std::vector<std::uint8_t> rxFifo;
        std::uint64_t bytesTransmitted = 0;

        bool operator==(const State &) const = default;
    };

    State forkState() const { return state_; }
    void restoreForkState(const State &state) { state_ = state; }

  private:
    State state_;
};

} // namespace sentry::hw

#endif // SENTRY_HW_DEVICES_HH
