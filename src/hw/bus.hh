/**
 * @file
 * The external memory bus connecting the SoC to off-chip DRAM.
 *
 * Everything that crosses this bus — cache-line fills, writebacks, DMA
 * transfers — fires a probe::BusTransfer trace point, including
 * addresses and payloads. Traffic that stays on the SoC (iRAM
 * accesses, L2 hits) never appears here; that asymmetry is the core of
 * Sentry's security argument. Attach a hw::BusMonitor (or any other
 * probe::Subscriber) to the owning Soc's TraceEngine to observe it.
 */

#ifndef SENTRY_HW_BUS_HH
#define SENTRY_HW_BUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/probe.hh"
#include "common/trace_engine.hh"
#include "common/types.hh"

namespace sentry::hw
{

/** Bus transactions carry the probe-layer initiator tag. */
using probe::BusInitiator;

/** A device addressable over the bus. */
class BusTarget
{
  public:
    virtual ~BusTarget() = default;

    /** Read @p len bytes at device-relative @p offset. */
    virtual void busRead(PhysAddr offset, std::uint8_t *buf,
                         std::size_t len) = 0;

    /** Write @p len bytes at device-relative @p offset. */
    virtual void busWrite(PhysAddr offset, const std::uint8_t *buf,
                          std::size_t len) = 0;
};

/** External-bus traffic counters (cheap enough to keep always-on). */
struct BusStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readBytes = 0;
    std::uint64_t writeBytes = 0;

    /** @return total transactions of either direction. */
    std::uint64_t transactions() const { return reads + writes; }

    bool operator==(const BusStats &) const = default;
};

/** Address-routing bus firing BusTransfer trace points. */
class Bus
{
  public:
    /** Map @p target at [base, base+size). Ranges must not overlap. */
    void attach(BusTarget *target, PhysAddr base, std::size_t size,
                std::string name);

    /** @return true if [addr, addr+len) maps to exactly one target. */
    bool covers(PhysAddr addr, std::size_t len) const;

    /** Read from the mapped device; fires a BusTransfer trace point. */
    void read(PhysAddr addr, std::uint8_t *buf, std::size_t len,
              BusInitiator initiator);

    /** Write to the mapped device; fires a BusTransfer trace point. */
    void write(PhysAddr addr, const std::uint8_t *buf, std::size_t len,
               BusInitiator initiator);

    /** @return transaction counters. */
    const BusStats &stats() const { return stats_; }

    /** Zero the transaction counters. */
    void clearStats() { stats_ = BusStats{}; }

    /** Overwrite the transaction counters (snapshot/fork restore; the
     * mappings themselves are construction-time wiring). */
    void restoreStats(const BusStats &stats) { stats_ = stats; }

    /** Wire (or with nullptr unwire) the owning Soc's trace engine. */
    void setTraceEngine(probe::TraceEngine *trace) { trace_ = trace; }

  private:
    struct Mapping
    {
        BusTarget *target;
        PhysAddr base;
        std::size_t size;
        std::string name;
    };

    const Mapping &route(PhysAddr addr, std::size_t len) const;

    std::vector<Mapping> mappings_;
    // Route cache: index of the last mapping hit. Line fills and
    // writebacks stream against one target, so this turns the routing
    // scan into a single range check on the hot path.
    mutable std::size_t lastRoute_ = SIZE_MAX;
    BusStats stats_;
    probe::TraceEngine *trace_ = nullptr;
};

} // namespace sentry::hw

#endif // SENTRY_HW_BUS_HH
