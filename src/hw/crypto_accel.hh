/**
 * @file
 * Hardware AES accelerator (the Nexus 4 crypto engine).
 *
 * The paper found the accelerator *slower* than the CPU for Sentry's
 * workload because (a) Sentry feeds it 4 KB pages, so the fixed per-
 * request setup cost dominates, and (b) the engine down-scales its
 * frequency when the phone is locked — precisely when Sentry runs. Both
 * effects are modelled: throughput is max_rate/4 while down-scaled, and
 * every request pays a setup latency.
 *
 * The engine produces real AES-CBC output (it shares the software
 * cipher's mathematics) but keeps its key schedule in engine-internal
 * registers, not DRAM.
 */

#ifndef SENTRY_HW_CRYPTO_ACCEL_HH
#define SENTRY_HW_CRYPTO_ACCEL_HH

#include <cstdint>
#include <memory>
#include <span>

#include "common/sim_clock.hh"
#include "common/trace_engine.hh"
#include "crypto/aes.hh"
#include "crypto/modes.hh"
#include "hw/energy.hh"

namespace sentry::hw
{

/** Performance/energy characteristics of the accelerator. */
struct CryptoAccelParams
{
    double fullRateBytesPerSec = 80e6; //!< streaming rate when awake
    double setupSeconds = 150e-6;      //!< fixed per-request latency
    unsigned downscaleFactor = 4;      //!< rate divisor when locked
};

/** The hardware AES engine. */
class CryptoAccelerator
{
  public:
    CryptoAccelerator(SimClock &clock, EnergyModel &energy,
                      CryptoAccelParams params = {});

    /** Load a key into the engine's internal key registers. */
    void setKey(std::span<const std::uint8_t> key);

    /**
     * Device power management: the engine drops to 1/downscaleFactor of
     * its rate while the device is locked/suspending.
     */
    void setDownscaled(bool downscaled) { state_.downscaled = downscaled; }

    /** @return true while frequency-down-scaled. */
    bool downscaled() const { return state_.downscaled; }

    /** CBC-encrypt @p data in place (one DMA-style request). */
    void cbcEncrypt(const crypto::Iv &iv, std::span<std::uint8_t> data);

    /** CBC-decrypt @p data in place (one request). */
    void cbcDecrypt(const crypto::Iv &iv, std::span<std::uint8_t> data);

    /** @return effective streaming rate right now, bytes/second. */
    double currentRate() const;

    /** Wire (or with nullptr unwire) the owning Soc's trace engine. */
    void setTraceEngine(probe::TraceEngine *trace) { trace_ = trace; }

    /** The engine's registers: a fork copies them whole, the immutable
     * key schedule by pointer (so == compares which one is loaded).
     * Outside: the params (a construction-time constant) and the clock,
     * energy model and trace engine (wiring). */
    struct State
    {
        bool downscaled = false;
        std::shared_ptr<const crypto::Aes> cipher; //!< null: no key

        bool operator==(const State &) const = default;
    };

    State forkState() const { return state_; }
    void restoreForkState(const State &state) { state_ = state; }

  private:
    void chargeRequest(std::size_t bytes, bool encrypt);

    SimClock &clock_;
    EnergyModel &energy_;
    CryptoAccelParams params_;
    State state_;
    probe::TraceEngine *trace_ = nullptr;
};

} // namespace sentry::hw

#endif // SENTRY_HW_CRYPTO_ACCEL_HH
