#include "common/trace_engine.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "common/sim_clock.hh"

namespace sentry::probe
{

void
TraceEngine::subscribe(Subscriber *sub, TraceMask mask)
{
    for (Entry &e : entries_) {
        if (e.sub == sub) {
            e.mask = mask;
            recomputeMask();
            return;
        }
    }
    entries_.push_back({sub, mask});
    syncMask_ |= mask;
    activeMask_ |= mask;
}

void
TraceEngine::unsubscribe(Subscriber *sub)
{
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [sub](const Entry &e) {
                                      return e.sub == sub;
                                  }),
                   entries_.end());
    recomputeMask();
}

void
TraceEngine::attachCounters(TraceCounters *totals)
{
    if (counters_ != nullptr)
        panic("trace engine: a second CounterSink attached (an engine "
              "counts into one set of totals)");
    counters_ = totals;
    activeMask_ = syncMask_ | TRACE_ALL;
}

void
TraceEngine::detachCounters(const TraceCounters *totals)
{
    if (counters_ != totals)
        return;
    counters_ = nullptr;
    recomputeMask();
}

void
TraceEngine::recomputeMask()
{
    syncMask_ = 0;
    for (const Entry &e : entries_)
        syncMask_ |= e.mask;
    activeMask_ = syncMask_ | (counters_ != nullptr ? TRACE_ALL : 0);
}

// One dispatch body per payload type, kept out of the header so the
// emission sites inline only the mask tests and the count.
#define SENTRY_TRACE_DISPATCH(Kind, Method)                                 \
    void TraceEngine::dispatch(Kind &event)                                 \
    {                                                                       \
        const TraceMask bit = maskOf(TraceKind::Kind);                      \
        for (const Entry &e : entries_) {                                   \
            if ((e.mask & bit) != 0)                                        \
                e.sub->Method(event);                                       \
        }                                                                   \
    }

SENTRY_TRACE_DISPATCH(MemAccess, onMemAccess)
SENTRY_TRACE_DISPATCH(BusTransfer, onBusTransfer)
SENTRY_TRACE_DISPATCH(CacheEvent, onCacheEvent)
SENTRY_TRACE_DISPATCH(PowerEvent, onPowerEvent)
SENTRY_TRACE_DISPATCH(DmaBurst, onDmaBurst)
SENTRY_TRACE_DISPATCH(CryptoOp, onCryptoOp)
SENTRY_TRACE_DISPATCH(KcryptdOp, onKcryptdOp)

#undef SENTRY_TRACE_DISPATCH

std::string
TraceCounters::summary() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "dramR:%llu dramW:%llu iramR:%llu iramW:%llu busR:%llu busW:%llu "
        "busDup:%llu busRB:%llu busWB:%llu wb:%llu power:%llu "
        "joules:%.9g dma:%llu dmaB:%llu crypto:%llu cryptoB:%llu "
        "kcryptd:%llu stall:%.9g",
        static_cast<unsigned long long>(dramReads),
        static_cast<unsigned long long>(dramWrites),
        static_cast<unsigned long long>(iramReads),
        static_cast<unsigned long long>(iramWrites),
        static_cast<unsigned long long>(busReads),
        static_cast<unsigned long long>(busWrites),
        static_cast<unsigned long long>(busDuplicates),
        static_cast<unsigned long long>(busReadBytes),
        static_cast<unsigned long long>(busWriteBytes),
        static_cast<unsigned long long>(cacheWritebacks),
        static_cast<unsigned long long>(powerEvents), joules,
        static_cast<unsigned long long>(dmaBursts),
        static_cast<unsigned long long>(dmaBytes),
        static_cast<unsigned long long>(cryptoOps),
        static_cast<unsigned long long>(cryptoBytes),
        static_cast<unsigned long long>(kcryptdBlocks),
        kcryptdStallSeconds);
    return buf;
}

void
CounterSink::attach(TraceEngine &engine)
{
    detach();
    engine_ = &engine;
    engine_->attachCounters(&counters_);
}

void
CounterSink::detach()
{
    if (engine_ != nullptr) {
        engine_->detachCounters(&counters_);
        engine_ = nullptr;
    }
}

ChromeTraceSink::~ChromeTraceSink()
{
    if (!autoDumpPath_.empty()) {
        removeCrashHook(&ChromeTraceSink::crashHook, this);
        writeJson(autoDumpPath_);
        autoDumpPath_.clear();
    }
    detach();
}

void
ChromeTraceSink::attach(TraceEngine &engine, TraceMask mask)
{
    detach();
    engine_ = &engine;
    engine_->subscribe(this, mask);
}

void
ChromeTraceSink::detach()
{
    if (engine_ != nullptr) {
        engine_->unsubscribe(this);
        engine_ = nullptr;
    }
}

void
ChromeTraceSink::setAutoDump(const std::string &path)
{
    if (!autoDumpPath_.empty())
        removeCrashHook(&ChromeTraceSink::crashHook, this);
    autoDumpPath_ = path;
    if (!autoDumpPath_.empty())
        addCrashHook(&ChromeTraceSink::crashHook, this);
}

void
ChromeTraceSink::crashHook(void *self)
{
    // Every event delivered before the panic is already recorded.
    auto *sink = static_cast<ChromeTraceSink *>(self);
    if (!sink->autoDumpPath_.empty())
        sink->writeJson(sink->autoDumpPath_);
}

void
ChromeTraceSink::record(TraceKind kind, std::uint64_t arg0,
                        std::uint64_t arg1, double argF, bool flag)
{
    if (events_.size() >= maxEvents_) {
        truncated_ = true;
        return;
    }
    const SimClock *clock = engine_ != nullptr ? engine_->clock() : nullptr;
    const double tsUs = clock != nullptr ? clock->seconds() * 1e6 : 0.0;
    events_.push_back({kind, tsUs, arg0, arg1, argF, flag});
}

void
ChromeTraceSink::onMemAccess(MemAccess &event)
{
    const std::uint64_t iram =
        event.device == MemAccess::Device::Iram ? std::uint64_t{1} << 63 : 0;
    record(TraceKind::MemAccess, event.offset | iram, event.len, 0.0,
           event.isWrite);
}

void
ChromeTraceSink::onBusTransfer(BusTransfer &event)
{
    record(TraceKind::BusTransfer, event.addr,
           (std::uint64_t{event.duplicate} << 32) | event.size, 0.0,
           event.isWrite);
}

void
ChromeTraceSink::onCacheEvent(CacheEvent &event)
{
    record(TraceKind::CacheEvent, event.addr, event.way, 0.0, event.wayLocked);
}

void
ChromeTraceSink::onPowerEvent(PowerEvent &event)
{
    record(TraceKind::PowerEvent, 0, 0, event.joules, false);
}

void
ChromeTraceSink::onDmaBurst(DmaBurst &event)
{
    record(TraceKind::DmaBurst, event.addr, event.len, 0.0, event.isWrite);
}

void
ChromeTraceSink::onCryptoOp(CryptoOp &event)
{
    record(TraceKind::CryptoOp, event.bytes, 0, 0.0, event.encrypt);
}

void
ChromeTraceSink::onKcryptdOp(KcryptdOp &event)
{
    record(TraceKind::KcryptdOp, 0, 0, event.stallSeconds, false);
}

bool
ChromeTraceSink::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    for (const Event &e : events_) {
        std::fprintf(
            f,
            "%s{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
            "\"tid\":0,\"ts\":%.3f,\"args\":{\"a\":%llu,\"b\":%llu,"
            "\"f\":%.9g,\"w\":%s}}",
            first ? "" : ",\n", traceKindName(e.kind), e.tsUs,
            static_cast<unsigned long long>(e.arg0),
            static_cast<unsigned long long>(e.arg1), e.argF,
            e.flag ? "true" : "false");
        first = false;
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
    const bool ok = std::fclose(f) == 0;
    return ok;
}

} // namespace sentry::probe
