/**
 * @file
 * Simulated time base.
 *
 * All performance results in this reproduction are *simulated*: hardware
 * models charge cycles to a SimClock as work flows through them, and the
 * benchmarks convert accumulated cycles to seconds using the platform's
 * CPU frequency. Absolute numbers are calibrated anchors (see DESIGN.md);
 * relative shapes are the reproduction target.
 */

#ifndef SENTRY_COMMON_SIM_CLOCK_HH
#define SENTRY_COMMON_SIM_CLOCK_HH

#include <cstdint>

#include "common/types.hh"

namespace sentry
{

/** Cycle-accumulating clock owned by a simulated SoC. */
class SimClock
{
  public:
    /** @param freq_hz CPU frequency used to convert cycles to seconds. */
    explicit SimClock(double freq_hz = 1.2e9);

    /** Charge @p cycles of work to the clock. */
    void advance(Cycles cycles) { now_ += cycles; }

    /** Charge @p seconds of wall-clock work (converted to cycles). */
    void advanceSeconds(double seconds);

    /** @return current simulated time in cycles. */
    Cycles now() const { return now_; }

    /** @return current simulated time in seconds. */
    double seconds() const { return static_cast<double>(now_) / freqHz_; }

    /** @return configured frequency in Hz. */
    double frequency() const { return freqHz_; }

    /** Convert a cycle count to seconds at this clock's frequency. */
    double toSeconds(Cycles cycles) const
    {
        return static_cast<double>(cycles) / freqHz_;
    }

    /** Reset simulated time to zero. */
    void reset() { now_ = 0; }

  private:
    double freqHz_;
    Cycles now_ = 0;
};

/**
 * RAII stopwatch measuring elapsed simulated seconds over a scope or
 * between explicit marks.
 */
class SimStopwatch
{
  public:
    explicit SimStopwatch(const SimClock &clock)
        : clock_(clock), startCycles_(clock.now())
    {}

    /** @return simulated seconds elapsed since construction or restart. */
    double
    elapsedSeconds() const
    {
        return clock_.toSeconds(clock_.now() - startCycles_);
    }

    /** Restart the measurement window. */
    void restart() { startCycles_ = clock_.now(); }

  private:
    const SimClock &clock_;
    Cycles startCycles_;
};

} // namespace sentry

#endif // SENTRY_COMMON_SIM_CLOCK_HH
