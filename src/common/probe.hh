/**
 * @file
 * Typed trace points for the simulated SoC — the single observation
 * spine every instrumentation consumer attaches to.
 *
 * Hardware and OS models *emit* trace points; they know nothing about
 * who listens. Consumers (the fault injector, the bus-monitor probe,
 * timeline dumpers) *subscribe* to a per-Soc TraceEngine
 * (common/trace_engine.hh) for the kinds they care about, and an
 * attached CounterSink has the engine count every kind as it fires.
 * With no subscriber and no counter for a kind, the emission site
 * reduces to one pointer test plus one bit test and builds no payload
 * — the host fast path (DESIGN.md §6) stays intact.
 *
 * Some payloads are bidirectional: a subscriber may write a *response*
 * field (BusTransfer::extraWrites, KcryptdOp::stallSeconds) that the
 * emitting device acts on after the emit returns. This is how fault
 * injection feeds effects back into the machine without the devices
 * ever holding a pointer to the fault model. Each payload names its
 * own kind (KIND), which is how TraceEngine::emit finds its mask bit.
 */

#ifndef SENTRY_COMMON_PROBE_HH
#define SENTRY_COMMON_PROBE_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace sentry::probe
{

/** Who initiated a bus transfer. */
enum class BusInitiator
{
    CpuCache, //!< L2 line fill or writeback on behalf of the CPU
    Dma,      //!< a DMA controller transfer
};

/** Every kind of trace point a device can fire. */
enum class TraceKind : unsigned
{
    MemAccess,   //!< DRAM or iRAM cell-array access
    BusTransfer, //!< external-bus read or write transaction
    CacheEvent,  //!< L2 dirty-line writeback
    PowerEvent,  //!< energy charged to the battery model
    DmaBurst,    //!< DMA engine moved a buffer
    CryptoOp,    //!< hardware crypto accelerator request
    KcryptdOp,   //!< dm-crypt worker picked up one block to encrypt
    NumKinds,
};

/** Bitmask over TraceKind used for subscriptions. */
using TraceMask = std::uint32_t;

/** @return the subscription bit for one trace-point kind. */
constexpr TraceMask
maskOf(TraceKind kind)
{
    return TraceMask{1} << static_cast<unsigned>(kind);
}

/** Subscription mask covering every trace-point kind. */
constexpr TraceMask TRACE_ALL =
    (TraceMask{1} << static_cast<unsigned>(TraceKind::NumKinds)) - 1;

/** @return a short stable name for a trace-point kind. */
constexpr const char *
traceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::MemAccess:
        return "mem-access";
      case TraceKind::BusTransfer:
        return "bus-transfer";
      case TraceKind::CacheEvent:
        return "cache-event";
      case TraceKind::PowerEvent:
        return "power-event";
      case TraceKind::DmaBurst:
        return "dma-burst";
      case TraceKind::CryptoOp:
        return "crypto-op";
      default:
        return "kcryptd-op";
    }
}

/** A DRAM or iRAM cell-array access (device-relative offset). */
struct MemAccess
{
    static constexpr TraceKind KIND = TraceKind::MemAccess;

    enum class Device
    {
        Dram,
        Iram,
    };

    Device device;
    bool isWrite;
    PhysAddr offset;
    std::size_t len;
};

/** One transaction on the external memory bus. */
struct BusTransfer
{
    static constexpr TraceKind KIND = TraceKind::BusTransfer;

    PhysAddr addr;
    std::uint32_t size;
    bool isWrite;
    BusInitiator initiator;
    /** Payload; valid only during the subscriber callback. */
    const std::uint8_t *data;
    /** True when this is a fault-injected replay of the previous write. */
    bool duplicate;
    /**
     * Response channel: a subscriber may ask the bus to replay this
     * write @c extraWrites more times (each replay fires again with
     * @c duplicate set, and replies on replays are ignored).
     */
    unsigned extraWrites;
};

/** An L2 dirty line leaving the SoC (fires before the bus write). */
struct CacheEvent
{
    static constexpr TraceKind KIND = TraceKind::CacheEvent;

    unsigned way;
    bool wayLocked;
    PhysAddr addr;
};

/** Energy charged to the battery model. */
struct PowerEvent
{
    static constexpr TraceKind KIND = TraceKind::PowerEvent;

    const char *category; //!< energyCategoryName() string
    double joules;
};

/** A DMA engine moved @c len bytes at @c addr. */
struct DmaBurst
{
    static constexpr TraceKind KIND = TraceKind::DmaBurst;

    PhysAddr addr;
    std::size_t len;
    bool isWrite;
};

/** The hardware crypto accelerator processed one request. */
struct CryptoOp
{
    static constexpr TraceKind KIND = TraceKind::CryptoOp;

    std::size_t bytes;
    bool encrypt;
};

/** A dm-crypt worker picked up one block (one DmCrypt::writeBlock). */
struct KcryptdOp
{
    static constexpr TraceKind KIND = TraceKind::KcryptdOp;

    /**
     * Response channel: subscribers add worker-stall seconds here; the
     * emitting kcryptd path charges the total to the sim clock.
     */
    double stallSeconds;
};

} // namespace sentry::probe

#endif // SENTRY_COMMON_PROBE_HH
