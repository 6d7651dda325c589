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
    void clearKey() { cipher_ = nullptr; }

    /** CBC-encrypt @p data in place (one bulk request). */
    void cbcEncrypt(const crypto::Iv &iv, std::span<std::uint8_t> data);

    /** CBC-decrypt @p data in place (one bulk request). */
    void cbcDecrypt(const crypto::Iv &iv, std::span<std::uint8_t> data);

    /** @return accumulated work/cost counters. */
    const MemCryptoStats &stats() const { return stats_; }

    /** Wire (or with nullptr unwire) the owning Soc's trace engine. */
    void setTraceEngine(probe::TraceEngine *trace) { trace_ = trace; }

    /** Engine-internal register state for snapshot/fork. The loaded key
     * schedule is shared immutably between snapshot holders. */
    struct ForkState
    {
        std::shared_ptr<const crypto::Aes> cipher;
        MemCryptoStats stats;
    };

    ForkState forkState() const
    {
        ForkState fs;
        if (cipher_ != nullptr)
            fs.cipher = std::make_shared<const crypto::Aes>(*cipher_);
        fs.stats = stats_;
        return fs;
    }

    void restoreForkState(const ForkState &fs)
    {
        cipher_ = fs.cipher != nullptr
                      ? std::make_unique<crypto::Aes>(*fs.cipher)
                      : nullptr;
        stats_ = fs.stats;
    }

  private:
    void chargeRequest(std::size_t bytes, bool encrypt);

    SimClock &clock_;
    EnergyModel &energy_;
    MemCryptoParams params_;
    std::unique_ptr<crypto::Aes> cipher_;
    MemCryptoStats stats_;
    probe::TraceEngine *trace_ = nullptr;
};

} // namespace sentry::hw

#endif // SENTRY_HW_MEM_CRYPTO_ENGINE_HH
