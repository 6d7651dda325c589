/**
 * @file
 * GPU-like memory-encryption engine (the MemShield design point).
 *
 * MemShield keeps guest pages ciphertext-at-rest in DRAM and decrypts
 * them on access into a small plaintext working set. The crypto is done
 * by a bulk engine sitting beside the CPU — in MemShield's prototype the
 * integrated GPU — whose key schedule lives in engine-internal registers
 * and never touches system memory. Compared with the per-request
 * CryptoAccelerator (the Nexus 4 crypto block), this engine is tuned for
 * streaming whole pages: a higher full rate, a smaller per-request setup
 * cost, and no lock-time frequency down-scaling (the GPU clock is not
 * tied to the screen state).
 *
 * The engine produces real AES-CBC output (it shares the software
 * cipher's mathematics); time and energy are charged per request against
 * the owning Soc's clock and energy model.
 */

#ifndef SENTRY_HW_MEM_CRYPTO_ENGINE_HH
#define SENTRY_HW_MEM_CRYPTO_ENGINE_HH

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

/** Performance/energy characteristics of the memory-crypto engine. */
struct MemCryptoParams
{
    double fullRateBytesPerSec = 400e6; //!< streaming page-crypt rate
    double setupSeconds = 40e-6;        //!< fixed per-request latency
    double joulesPerByte = 0.05e-6;     //!< active energy (GPU shader)
    double joulesPerRequest = 120e-6;   //!< per-request kickoff energy
};

/** Work counters (also the simulated cost ledger for sim_defense_*). */
struct MemCryptoStats
{
    std::uint64_t requests = 0;
    std::uint64_t bytesProcessed = 0;
    double secondsCharged = 0.0;
    double joulesCharged = 0.0;

    bool operator==(const MemCryptoStats &) const = default;
};

/** The GPU-like bulk AES engine. */
class MemCryptoEngine
{
  public:
    MemCryptoEngine(SimClock &clock, EnergyModel &energy,
                    MemCryptoParams params = {});

    /** Load a key into the engine's internal key registers. */
    void setKey(std::span<const std::uint8_t> key);

    /** Drop the loaded key (deep-lock scrub). */
    void clearKey() { state_.cipher = nullptr; }

    /** CBC-encrypt @p data in place (one bulk request). */
    void cbcEncrypt(const crypto::Iv &iv, std::span<std::uint8_t> data);

    /** CBC-decrypt @p data in place (one bulk request). */
    void cbcDecrypt(const crypto::Iv &iv, std::span<std::uint8_t> data);

    /** @return accumulated work/cost counters. */
    const MemCryptoStats &stats() const { return state_.stats; }

    /** Wire (or with nullptr unwire) the owning Soc's trace engine. */
    void setTraceEngine(probe::TraceEngine *trace) { trace_ = trace; }

    /** The engine's registers and cost ledger: a fork copies them
     * whole, the immutable key schedule by pointer (so == compares which
     * one is loaded). Outside: the params (a construction-time constant)
     * and the clock, energy model and trace engine (wiring). */
    struct State
    {
        std::shared_ptr<const crypto::Aes> cipher; //!< null: unkeyed
        MemCryptoStats stats;

        bool operator==(const State &) const = default;
    };

    State forkState() const { return state_; }
    void restoreForkState(const State &state) { state_ = state; }

  private:
    void chargeRequest(std::size_t bytes, bool encrypt);

    SimClock &clock_;
    EnergyModel &energy_;
    MemCryptoParams params_;
    State state_;
    probe::TraceEngine *trace_ = nullptr;
};

} // namespace sentry::hw

#endif // SENTRY_HW_MEM_CRYPTO_ENGINE_HH
