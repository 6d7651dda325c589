/**
 * @file
 * DMA controller model.
 *
 * DMA transfers move data directly between system memory and peripheral
 * FIFOs without CPU involvement. Two properties matter for Sentry:
 *
 *   - DMA bypasses the L2 cache (coherence is software-managed on these
 *     SoCs), so a DMA read of an address whose current value lives in a
 *     locked cache way returns the *stale DRAM* content — this is both
 *     why cache-locking defeats DMA attacks and the mechanism behind the
 *     paper's PL310 validation experiment (section 4.2);
 *   - DMA can address iRAM like any other memory, so iRAM is only DMA-
 *     safe when TrustZone has been programmed to deny it (section 4.4).
 */

#ifndef SENTRY_HW_DMA_HH
#define SENTRY_HW_DMA_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_clock.hh"
#include "common/types.hh"
#include "hw/bus.hh"

namespace sentry::hw
{

class Iram;
class TrustZone;

/** Result of a DMA operation. */
enum class DmaStatus
{
    Ok,
    DeniedByTrustZone,
    BadAddress,
    DeviceNotReadable, //!< e.g. a NIC transmit FIFO cannot be read back
};

/** A peripheral endpoint DMA can target. */
class DmaDevice
{
  public:
    virtual ~DmaDevice() = default;

    /** Push @p len bytes into the device FIFO at @p offset. */
    virtual DmaStatus dmaWrite(PhysAddr offset, const std::uint8_t *buf,
                               std::size_t len) = 0;

    /** Pull @p len bytes from the device FIFO at @p offset. */
    virtual DmaStatus dmaRead(PhysAddr offset, std::uint8_t *buf,
                              std::size_t len) = 0;
};

/** The DMA engine. */
class DmaController
{
  public:
    /**
     * @param clock simulated clock (transfers charge bus time)
     * @param bus   external memory bus (DRAM window)
     * @param iram  on-chip SRAM (DMA-addressable unless protected)
     * @param tz    TrustZone access controller
     */
    DmaController(SimClock &clock, Bus &bus, Iram &iram, TrustZone &tz);

    /** Map a peripheral FIFO window for descriptor-based transfers. */
    void attachDevice(DmaDevice *device, PhysAddr base, std::size_t size,
                      std::string name);

    /**
     * Read @p len bytes of system memory (DRAM or iRAM) into @p buf,
     * exactly as a malicious or benign DMA master would: straight off
     * the bus, bypassing the cache, subject to TrustZone protection.
     */
    DmaStatus readMemory(PhysAddr addr, std::uint8_t *buf, std::size_t len);

    /** Write @p len bytes into system memory, bypassing the cache. */
    DmaStatus writeMemory(PhysAddr addr, const std::uint8_t *buf,
                          std::size_t len);

    /**
     * Descriptor transfer: memory -> device FIFO or device FIFO ->
     * memory, depending on which side of the pair is a device address.
     */
    DmaStatus transfer(PhysAddr src, PhysAddr dst, std::size_t len);

    /** @return total bytes moved by this controller. */
    std::uint64_t bytesTransferred() const { return state_.bytesTransferred; }

    /** Wire (or with nullptr unwire) the owning Soc's trace engine. */
    void setTraceEngine(probe::TraceEngine *trace) { trace_ = trace; }

    /** The transfer accounting: a fork copies it whole. Outside it:
     * the device mappings, clock, bus, iRAM, TrustZone and trace
     * engine (wiring). */
    struct State
    {
        std::uint64_t bytesTransferred = 0;

        bool operator==(const State &) const = default;
    };

    State forkState() const { return state_; }
    void restoreForkState(const State &state) { state_ = state; }

  private:
    struct DeviceMapping
    {
        DmaDevice *device;
        PhysAddr base;
        std::size_t size;
        std::string name;
    };

    const DeviceMapping *findDevice(PhysAddr addr, std::size_t len) const;
    bool isMemory(PhysAddr addr, std::size_t len) const;

    SimClock &clock_;
    Bus &bus_;
    Iram &iram_;
    TrustZone &tz_;
    std::vector<DeviceMapping> devices_;
    State state_;
    probe::TraceEngine *trace_ = nullptr;
};

} // namespace sentry::hw

#endif // SENTRY_HW_DMA_HH
