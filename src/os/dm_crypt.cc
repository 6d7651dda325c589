#include "os/dm_crypt.hh"

#include "common/trace_engine.hh"

namespace sentry::os
{

namespace
{

/**
 * Fire one probe::KcryptdOp for a kcryptd block pickup and charge any
 * subscriber-requested worker stall to the simulated clock.
 */
void
chargeKcryptdStall(crypto::SimAesEngine &cipher)
{
    probe::TraceEngine &trace = cipher.soc().trace();
    if (!trace.enabled(probe::TraceKind::KcryptdOp))
        return;
    probe::KcryptdOp event{0.0};
    trace.emit(event);
    if (event.stallSeconds > 0.0)
        cipher.soc().clock().advanceSeconds(event.stallSeconds);
}

} // namespace

DmCrypt::DmCrypt(BlockLayer &lower,
                 std::unique_ptr<crypto::SimAesEngine> cipher,
                 unsigned async_workers)
    : lower_(lower), cipher_(std::move(cipher)),
      asyncWorkers_(async_workers == 0 ? 1 : async_workers)
{}

crypto::Iv
DmCrypt::blockIv(std::uint64_t index)
{
    crypto::Iv iv{};
    for (int i = 0; i < 8; ++i)
        iv[i] = static_cast<std::uint8_t>(index >> (8 * i));
    return iv;
}

void
DmCrypt::readBlock(std::uint64_t index, std::span<std::uint8_t> buf)
{
    lower_.readBlock(index, buf);
    cipher_->cbcDecrypt(blockIv(index), buf);
}

void
DmCrypt::writeBlock(std::uint64_t index, std::span<const std::uint8_t> buf)
{
    staging_.assign(buf.begin(), buf.end());
    chargeKcryptdStall(*cipher_);
    // The write is queued to kcryptd workers: the encryption runs on
    // asyncWorkers_ cores in parallel with the issuing thread.
    cipher_->cbcEncrypt(blockIv(index), staging_, asyncWorkers_);
    lower_.writeBlock(index, staging_);
}

std::uint64_t
DmCrypt::numBlocks() const
{
    return lower_.numBlocks();
}

} // namespace sentry::os
