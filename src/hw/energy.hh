/**
 * @file
 * Full-system energy accounting and battery model.
 *
 * Energy is charged per operation by the layers doing the work (AES
 * bytes, page copies, zeroing, DMA, crypto-accelerator activity), in the
 * categories the paper's evaluation separates. Parameters are calibrated
 * to the Nexus 4 anchors reported in the paper:
 *
 *   - a full 2 GB memory encryption costs > 70 J and drains the battery
 *     after 410 suspend/resume cycles  =>  battery ~ 28.7 kJ;
 *   - freed-page zeroing costs 2.8 micro-J per MB;
 *   - Figure 12: ~0.02 uJ/B (user OpenSSL), ~0.03 uJ/B (kernel Crypto
 *     API), ~0.10 uJ/B (down-scaled HW accelerator) for 4 KB pages.
 */

#ifndef SENTRY_HW_ENERGY_HH
#define SENTRY_HW_ENERGY_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/trace_engine.hh"

namespace sentry::hw
{

/** Energy accounting categories. */
enum class EnergyCategory
{
    CpuAes,      //!< software AES on CPU cores
    CryptoAccel, //!< the hardware AES engine
    MemCopy,     //!< page copies between DRAM and on-SoC storage
    Zeroing,     //!< freed-page scrubbing
    Dma,
    PageFault,   //!< trap entry/exit and PTE maintenance
    Other,
    NumCategories,
};

/** @return human-readable category name. */
const char *energyCategoryName(EnergyCategory category);

/** Per-operation energy cost parameters (Joules). */
struct EnergyParams
{
    double cpuAesPerByte = 0.02e-6;       //!< user-mode software AES
    double kernelAesExtraPerByte = 0.01e-6; //!< Crypto API overhead
    double accelPerByte = 0.02e-6;        //!< accelerator active energy
    double accelPerRequest = 350e-6;      //!< per-request setup energy
    double memCopyPerByte = 0.6e-9;
    double zeroingPerByte = 2.8e-6 / (1024.0 * 1024.0); //!< 2.8 uJ/MB
    double dmaPerByte = 0.8e-9;
    double pageFaultEach = 1.2e-6;
};

/** Accumulates Joules per category and drains a battery. */
class EnergyModel
{
  public:
    /**
     * @param params  per-operation costs
     * @param battery_joules  usable battery capacity (0 = not modelled)
     */
    explicit EnergyModel(EnergyParams params, double battery_joules = 0.0);

    /** Charge @p joules to @p category. */
    void charge(EnergyCategory category, double joules);

    /** @return Joules consumed in @p category since the last reset. */
    double consumed(EnergyCategory category) const;

    /** @return total Joules consumed since the last reset. */
    double totalConsumed() const;

    /** @return the cost parameter set. */
    const EnergyParams &params() const { return params_; }

    /** @return battery capacity in Joules (0 when not modelled). */
    double batteryCapacity() const { return batteryJoules_; }

    /** @return fraction of battery consumed since last reset [0, 1+]. */
    double batteryFractionUsed() const;

    /** Zero the accumulators (fresh measurement window). */
    void reset();

    /** Wire (or with nullptr unwire) the owning Soc's trace engine. */
    void setTraceEngine(probe::TraceEngine *trace) { trace_ = trace; }

    /** The accumulators: a fork copies them whole. Outside them: the
     * cost params and battery capacity (construction-time constants)
     * and the trace engine (wiring). */
    struct State
    {
        std::array<double, static_cast<std::size_t>(
                               EnergyCategory::NumCategories)>
            consumed{};

        bool operator==(const State &) const = default;
    };

    State forkState() const { return state_; }
    void restoreForkState(const State &state) { state_ = state; }

  private:
    EnergyParams params_;
    double batteryJoules_;
    State state_;
    probe::TraceEngine *trace_ = nullptr;
};

} // namespace sentry::hw

#endif // SENTRY_HW_ENERGY_HH
