/**
 * @file
 * A recording bus probe — the hardware a bus-monitoring attacker clips
 * onto the DDR traces (paper section 3.1, e.g. a FuturePlus DDR analysis
 * probe). It captures addresses, directions, and payloads of everything
 * crossing the external memory bus, or greps the payloads as they cross
 * through a StreamMatcher and stores none of them.
 */

#ifndef SENTRY_HW_BUS_MONITOR_HH
#define SENTRY_HW_BUS_MONITOR_HH

#include <cstdint>
#include <vector>

#include "common/bytes.hh"
#include "common/trace_engine.hh"
#include "common/types.hh"
#include "hw/bus.hh"

namespace sentry::hw
{

/** Captured copy of one bus transaction. */
struct CapturedTransaction
{
    PhysAddr addr;
    std::uint32_t size;
    bool isWrite;
    BusInitiator initiator;
    std::vector<std::uint8_t> data;
};

/** Passive probe that records all bus traffic while attached. */
class BusMonitor : public probe::Subscriber
{
  public:
    /**
     * @param capture_payloads when false, only addresses are recorded
     *        (an access-pattern-only probe); payload vectors stay empty.
     * @param matcher when set, every payload is fed to it in event
     *        order while the probe is attached (not owned; must outlive
     *        the attachment).
     */
    explicit BusMonitor(bool capture_payloads = true,
                        StreamMatcher *matcher = nullptr)
        : capturePayloads_(capture_payloads), matcher_(matcher)
    {}

    ~BusMonitor() override { detach(); }

    /** Clip the probe onto @p engine's bus-transfer trace point. */
    void attach(probe::TraceEngine &engine)
    {
        engine_ = &engine;
        engine.subscribe(this,
                         probe::maskOf(probe::TraceKind::BusTransfer));
    }

    /** Unclip the probe; the captured trace is kept. */
    void detach()
    {
        if (engine_ != nullptr) {
            engine_->unsubscribe(this);
            engine_ = nullptr;
        }
    }

    void onBusTransfer(probe::BusTransfer &event) override;

    /** @return the captured trace, in order. */
    const std::vector<CapturedTransaction> &trace() const { return trace_; }

    /** Drop everything captured so far. */
    void clear() { trace_.clear(); }

    /** @return total bytes observed crossing the bus. */
    std::uint64_t bytesObserved() const { return bytesObserved_; }

  private:
    bool capturePayloads_;
    StreamMatcher *matcher_;
    probe::TraceEngine *engine_ = nullptr;
    std::vector<CapturedTransaction> trace_;
    std::uint64_t bytesObserved_ = 0;
};

} // namespace sentry::hw

#endif // SENTRY_HW_BUS_MONITOR_HH
