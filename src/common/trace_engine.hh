/**
 * @file
 * The per-Soc TraceEngine that fans typed trace points (common/probe.hh)
 * out to subscribers and counts them, plus two stock sinks: the
 * per-device counter totals (CounterSink) and a chrome://tracing
 * timeline dumper (ChromeTraceSink).
 *
 * Subscribers are called inline at the emission site, in subscription
 * order. The fault injector subscribes at arm time, before any monitor
 * or sink, so its effects and response fields (BusTransfer::extraWrites,
 * KcryptdOp::stallSeconds) are in place before later subscribers record
 * the event: a subscriber sees the response fields written by the
 * subscribers attached before it.
 *
 * Counting is not a subscriber. While a CounterSink is attached, emit()
 * folds the event into its TraceCounters inline, after every subscriber
 * returned. The totals therefore carry final response values, and the
 * events a subscriber emits from inside its own callback are counted
 * before the outer one. A kind nobody subscribes to or counts costs one
 * pointer test plus one bit test at the emission site (DESIGN.md
 * section 14.2).
 */

#ifndef SENTRY_COMMON_TRACE_ENGINE_HH
#define SENTRY_COMMON_TRACE_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/probe.hh"

namespace sentry
{
class SimClock;
}

namespace sentry::probe
{

/**
 * Receiver interface for trace points. Override only the kinds you
 * subscribe to; the defaults ignore the event.
 *
 * Payloads are passed by non-const reference so response channels
 * (BusTransfer::extraWrites, KcryptdOp::stallSeconds) can be filled.
 */
class Subscriber
{
  public:
    virtual ~Subscriber() = default;

    virtual void onMemAccess(MemAccess &event) { (void)event; }
    virtual void onBusTransfer(BusTransfer &event) { (void)event; }
    virtual void onCacheEvent(CacheEvent &event) { (void)event; }
    virtual void onPowerEvent(PowerEvent &event) { (void)event; }
    virtual void onDmaBurst(DmaBurst &event) { (void)event; }
    virtual void onCryptoOp(CryptoOp &event) { (void)event; }
    virtual void onKcryptdOp(KcryptdOp &event) { (void)event; }
};

/** Passive per-device totals accumulated from every trace-point kind. */
struct TraceCounters
{
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t iramReads = 0;
    std::uint64_t iramWrites = 0;
    std::uint64_t busReads = 0;
    std::uint64_t busWrites = 0;
    std::uint64_t busDuplicates = 0;
    std::uint64_t busReadBytes = 0;
    std::uint64_t busWriteBytes = 0;
    std::uint64_t cacheWritebacks = 0;
    std::uint64_t powerEvents = 0;
    double joules = 0.0;
    std::uint64_t dmaBursts = 0;
    std::uint64_t dmaBytes = 0;
    std::uint64_t cryptoOps = 0;
    std::uint64_t cryptoBytes = 0;
    std::uint64_t kcryptdBlocks = 0;
    double kcryptdStallSeconds = 0.0;

    /** Fold one event into the totals (TraceEngine::emit calls these). */
    void
    count(const MemAccess &event)
    {
        if (event.device == MemAccess::Device::Dram)
            ++(event.isWrite ? dramWrites : dramReads);
        else
            ++(event.isWrite ? iramWrites : iramReads);
    }

    void
    count(const BusTransfer &event)
    {
        if (event.duplicate)
            ++busDuplicates;
        if (event.isWrite) {
            ++busWrites;
            busWriteBytes += event.size;
        } else {
            ++busReads;
            busReadBytes += event.size;
        }
    }

    void count(const CacheEvent &) { ++cacheWritebacks; }

    void
    count(const PowerEvent &event)
    {
        ++powerEvents;
        joules += event.joules;
    }

    void
    count(const DmaBurst &event)
    {
        ++dmaBursts;
        dmaBytes += event.len;
    }

    void
    count(const CryptoOp &event)
    {
        ++cryptoOps;
        cryptoBytes += event.bytes;
    }

    void
    count(const KcryptdOp &event)
    {
        ++kcryptdBlocks;
        kcryptdStallSeconds += event.stallSeconds;
    }

    /** @return one-line "k:v k:v ..." rendering (stable field order). */
    std::string summary() const;
};

/**
 * Fan-out point for one simulated machine. Every device of a Soc holds
 * a pointer to its engine and guards each emission site with
 * `enabled(kind)` — one load plus one bit test when nobody listens.
 */
class TraceEngine
{
  public:
    /**
     * Attach @p sub for the kinds in @p mask. Subscribing an already
     * attached subscriber replaces its mask.
     */
    void subscribe(Subscriber *sub, TraceMask mask);

    /** Detach @p sub (no-op when it is not attached). */
    void unsubscribe(Subscriber *sub);

    /**
     * Count every kind into @p totals from now on (CounterSink::attach
     * calls this). An engine has one counting slot: attaching while
     * another set of totals is attached panics, since silently
     * dropping one of them would lose counts.
     */
    void attachCounters(TraceCounters *totals);

    /** Stop counting into @p totals (no-op when it is not attached). */
    void detachCounters(const TraceCounters *totals);

    /** @return true when a subscriber or the counters want @p kind. */
    bool
    enabled(TraceKind kind) const
    {
        return (activeMask_ & maskOf(kind)) != 0;
    }

    /** @return true when anything is attached at all. */
    bool anyEnabled() const { return activeMask_ != 0; }

    /** @return attached subscribers, plus one while counting. */
    std::size_t
    subscriberCount() const
    {
        return entries_.size() + (counters_ != nullptr ? 1 : 0);
    }

    /** Wire the simulated clock (the Soc does this at construction). */
    void setClock(const SimClock *clock) { clock_ = clock; }

    /** @return the simulated clock, or nullptr when none is wired. */
    const SimClock *clock() const { return clock_; }

    /**
     * Fire one trace point: run the subscribers for its kind, in
     * subscription order, then count it. Dispatch stays out of line.
     */
    template <typename Event>
    void
    emit(Event &event)
    {
        if ((syncMask_ & maskOf(Event::KIND)) != 0)
            dispatch(event);
        if (counters_ != nullptr)
            counters_->count(event);
    }

  private:
    struct Entry
    {
        Subscriber *sub;
        TraceMask mask;
    };

    void recomputeMask();

    void dispatch(MemAccess &event);
    void dispatch(BusTransfer &event);
    void dispatch(CacheEvent &event);
    void dispatch(PowerEvent &event);
    void dispatch(DmaBurst &event);
    void dispatch(CryptoOp &event);
    void dispatch(KcryptdOp &event);

    std::vector<Entry> entries_;
    TraceMask syncMask_ = 0;
    TraceMask activeMask_ = 0;
    TraceCounters *counters_ = nullptr;
    const SimClock *clock_ = nullptr;
};

/**
 * The per-device trace totals. While attached, the engine counts every
 * kind into them as it fires. Deterministic: the totals depend only on
 * the simulated event stream, never on host timing.
 */
class CounterSink
{
  public:
    CounterSink() = default;
    CounterSink(const CounterSink &) = delete;
    CounterSink &operator=(const CounterSink &) = delete;
    ~CounterSink() { detach(); }

    /** Count every kind on @p engine (detaches from any prior engine). */
    void attach(TraceEngine &engine);

    /** Stop counting (no-op when unattached). */
    void detach();

    const TraceCounters &counters() const { return counters_; }

    void reset() { counters_ = TraceCounters{}; }

  private:
    TraceEngine *engine_ = nullptr;
    TraceCounters counters_;
};

/**
 * Subscriber that records a bounded timeline of instant events and
 * writes them as chrome://tracing JSON (load via chrome://tracing or
 * https://ui.perfetto.dev). Timestamps are *simulated* microseconds,
 * read from the engine's clock when the callback runs. Subscribe it
 * after anything that moves the clock or writes response fields, as
 * the fleet runner does after the fault injector.
 *
 * With an auto-dump path set, the sink also writes its timeline from
 * the destructor and from the panic() crash path, so a fleet run that
 * dies on an invariant failure still leaves a loadable trace file.
 */
class ChromeTraceSink : public Subscriber
{
  public:
    /** @param maxEvents hard cap; later events are dropped (truncated()). */
    explicit ChromeTraceSink(std::size_t maxEvents = 1u << 20)
        : maxEvents_(maxEvents)
    {}

    ChromeTraceSink(const ChromeTraceSink &) = delete;
    ChromeTraceSink &operator=(const ChromeTraceSink &) = delete;
    ~ChromeTraceSink() override;

    /** Subscribe to @p engine for the kinds in @p mask. */
    void attach(TraceEngine &engine, TraceMask mask = TRACE_ALL);

    /** Unsubscribe (no-op when unattached). */
    void detach();

    /**
     * Arrange for the timeline to be written to @p path when this sink
     * is destroyed or when panic() aborts the process, whichever comes
     * first (an explicit writeJson() to any path disarms neither; the
     * dump simply records whatever has been captured so far).
     */
    void setAutoDump(const std::string &path);

    /** Write the recorded timeline; @return false on I/O failure. */
    bool writeJson(const std::string &path) const;

    /** @return captured events. */
    std::size_t eventCount() const { return events_.size(); }

    bool truncated() const { return truncated_; }

    void onMemAccess(MemAccess &event) override;
    void onBusTransfer(BusTransfer &event) override;
    void onCacheEvent(CacheEvent &event) override;
    void onPowerEvent(PowerEvent &event) override;
    void onDmaBurst(DmaBurst &event) override;
    void onCryptoOp(CryptoOp &event) override;
    void onKcryptdOp(KcryptdOp &event) override;

  private:
    struct Event
    {
        TraceKind kind;
        double tsUs;        //!< simulated microseconds
        std::uint64_t arg0; //!< addr / way / bytes (kind-dependent)
        std::uint64_t arg1; //!< len / flags (kind-dependent)
        double argF;        //!< joules / stall seconds
        bool flag;          //!< isWrite / wayLocked / encrypt / duplicate
    };

    static void crashHook(void *self);
    /** Keep one event, stamped with the current simulated time. */
    void record(TraceKind kind, std::uint64_t arg0, std::uint64_t arg1,
                double argF, bool flag);

    TraceEngine *engine_ = nullptr;
    std::size_t maxEvents_;
    bool truncated_ = false;
    std::string autoDumpPath_;
    std::vector<Event> events_;
};

} // namespace sentry::probe

#endif // SENTRY_COMMON_TRACE_ENGINE_HH
