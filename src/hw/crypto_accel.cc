#include "hw/crypto_accel.hh"

#include "common/logging.hh"

namespace sentry::hw
{

CryptoAccelerator::CryptoAccelerator(SimClock &clock, EnergyModel &energy,
                                     CryptoAccelParams params)
    : clock_(clock), energy_(energy), params_(params)
{}

void
CryptoAccelerator::setKey(std::span<const std::uint8_t> key)
{
    state_.cipher = std::make_shared<const crypto::Aes>(key);
}

double
CryptoAccelerator::currentRate() const
{
    const double rate = params_.fullRateBytesPerSec;
    return state_.downscaled ? rate / params_.downscaleFactor : rate;
}

void
CryptoAccelerator::chargeRequest(std::size_t bytes, bool encrypt)
{
    // The whole engine (including its request setup path) runs at the
    // reduced clock while down-scaled.
    const double setup = state_.downscaled
                             ? params_.setupSeconds *
                                   params_.downscaleFactor
                             : params_.setupSeconds;
    clock_.advanceSeconds(setup +
                          static_cast<double>(bytes) / currentRate());
    energy_.charge(EnergyCategory::CryptoAccel,
                   energy_.params().accelPerRequest +
                       energy_.params().accelPerByte *
                           static_cast<double>(bytes));
    if (trace_ != nullptr && trace_->enabled(probe::TraceKind::CryptoOp)) {
        probe::CryptoOp event{bytes, encrypt};
        trace_->emit(event);
    }
}

void
CryptoAccelerator::cbcEncrypt(const crypto::Iv &iv,
                              std::span<std::uint8_t> data)
{
    if (!state_.cipher)
        fatal("crypto accelerator used before a key was loaded");
    crypto::AesBlockCipher block(*state_.cipher);
    crypto::cbcEncrypt(block, iv, data);
    chargeRequest(data.size(), true);
}

void
CryptoAccelerator::cbcDecrypt(const crypto::Iv &iv,
                              std::span<std::uint8_t> data)
{
    if (!state_.cipher)
        fatal("crypto accelerator used before a key was loaded");
    crypto::AesBlockCipher block(*state_.cipher);
    crypto::cbcDecrypt(block, iv, data);
    chargeRequest(data.size(), false);
}

} // namespace sentry::hw
