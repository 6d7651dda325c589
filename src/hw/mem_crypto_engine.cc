#include "hw/mem_crypto_engine.hh"

#include "common/logging.hh"
#include "host/kernels.hh"

namespace sentry::hw
{

MemCryptoEngine::MemCryptoEngine(SimClock &clock, EnergyModel &energy,
                                 MemCryptoParams params)
    : clock_(clock), energy_(energy), params_(params)
{}

void
MemCryptoEngine::setKey(std::span<const std::uint8_t> key)
{
    state_.cipher = std::make_shared<const crypto::Aes>(key);
}

void
MemCryptoEngine::chargeRequest(std::size_t bytes, bool encrypt)
{
    const double seconds =
        params_.setupSeconds +
        static_cast<double>(bytes) / params_.fullRateBytesPerSec;
    const double joules =
        params_.joulesPerRequest +
        params_.joulesPerByte * static_cast<double>(bytes);
    clock_.advanceSeconds(seconds);
    energy_.charge(EnergyCategory::CryptoAccel, joules);
    ++state_.stats.requests;
    state_.stats.bytesProcessed += bytes;
    state_.stats.secondsCharged += seconds;
    state_.stats.joulesCharged += joules;
    if (trace_ != nullptr && trace_->enabled(probe::TraceKind::CryptoOp)) {
        probe::CryptoOp event{bytes, encrypt};
        trace_->emit(event);
    }
}

void
MemCryptoEngine::cbcEncrypt(const crypto::Iv &iv,
                            std::span<std::uint8_t> data)
{
    if (!state_.cipher)
        fatal("memory-crypto engine used before a key was loaded");
    if (data.size() % AES_BLOCK_SIZE != 0)
        fatal("cbcEncrypt requires a multiple of 16 bytes");
    host::kernels().aes.cbcEncrypt(state_.cipher->schedule(), iv.data(),
                                   data.data(), data.size());
    chargeRequest(data.size(), true);
}

void
MemCryptoEngine::cbcDecrypt(const crypto::Iv &iv,
                            std::span<std::uint8_t> data)
{
    if (!state_.cipher)
        fatal("memory-crypto engine used before a key was loaded");
    if (data.size() % AES_BLOCK_SIZE != 0)
        fatal("cbcDecrypt requires a multiple of 16 bytes");
    host::kernels().aes.cbcDecrypt(state_.cipher->schedule(), iv.data(),
                                   data.data(), data.size());
    chargeRequest(data.size(), false);
}

} // namespace sentry::hw
