/**
 * @file
 * dm-crypt: transparent block-level encryption (paper section 7,
 * "Securing Persistent State").
 *
 * The cipher comes from the kernel CryptoApi's best "aes"
 * implementation, so simply registering AES On SoC at a higher priority
 * than the generic kernel AES re-keys this whole layer onto on-SoC
 * state with no dm-crypt changes — the paper's integration story.
 *
 * Per-block IVs use the plain64 convention (little-endian block number
 * in the first 8 IV bytes).
 *
 * Writes model kcryptd, dm-crypt's pool of encryption workers: each
 * block's encryption is charged as if spread over the simulated cores
 * the pool runs on. The host encrypts every block inline, one
 * writeBlock() at a time.
 */

#ifndef SENTRY_OS_DM_CRYPT_HH
#define SENTRY_OS_DM_CRYPT_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/aes_on_soc.hh"
#include "os/block_device.hh"

namespace sentry::os
{

/** Encrypting block-layer shim. */
class DmCrypt : public BlockLayer
{
  public:
    /**
     * @param lower  backing device (holds only ciphertext)
     * @param cipher keyed AES engine (from CryptoApi::allocCipher)
     * @param async_workers simulated cores kcryptd encrypts writes on:
     *        a write's simulated crypto time is divided by this count
     *        (reads block the caller and always pay the full inline
     *        cost)
     */
    DmCrypt(BlockLayer &lower,
            std::unique_ptr<crypto::SimAesEngine> cipher,
            unsigned async_workers = 1);

    void readBlock(std::uint64_t index,
                   std::span<std::uint8_t> buf) override;
    void writeBlock(std::uint64_t index,
                    std::span<const std::uint8_t> buf) override;

    std::uint64_t numBlocks() const override;

    /** @return the engine (diagnostics: placement, bytes processed). */
    const crypto::SimAesEngine &cipher() const { return *cipher_; }

    /** @return the plain64 IV for block @p index. */
    static crypto::Iv blockIv(std::uint64_t index);

  private:
    BlockLayer &lower_;
    std::unique_ptr<crypto::SimAesEngine> cipher_;
    unsigned asyncWorkers_;
    std::vector<std::uint8_t> staging_; //!< reused write staging buffer
};

} // namespace sentry::os

#endif // SENTRY_OS_DM_CRYPT_HH
