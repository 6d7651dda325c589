/**
 * @file
 * SHA-256 (FIPS 180-4) and HMAC-SHA256, used by the key-derivation path
 * that turns {boot password, secure-fuse secret} into Sentry's persistent
 * root key (paper section 7, "Bootstrapping").
 */

#ifndef SENTRY_CRYPTO_SHA256_HH
#define SENTRY_CRYPTO_SHA256_HH

#include <array>
#include <cstdint>
#include <span>

namespace sentry::crypto
{

/** A 32-byte SHA-256 digest. */
using Sha256Digest = std::array<std::uint8_t, 32>;

/** Incremental SHA-256 hasher. */
class Sha256
{
  public:
    Sha256() { reset(); }

    /** Reset to the initial state. */
    void reset();

    /** Absorb @p data. */
    void update(std::span<const std::uint8_t> data);

    /** Finalise and return the digest; the hasher is then reset. */
    Sha256Digest finish();

    /** One-shot convenience. */
    static Sha256Digest hash(std::span<const std::uint8_t> data);

  private:
    void processBlock(const std::uint8_t block[64]);

    std::uint32_t state_[8];
    std::uint64_t totalBytes_;
    std::uint8_t buffer_[64];
    std::size_t bufferLen_;
};

/**
 * HMAC-SHA256 (RFC 2104) under one key: the key's inner and outer pads
 * are absorbed once, so each MAC costs the message's compressions plus
 * two, however many messages are signed.
 */
class HmacSha256
{
  public:
    explicit HmacSha256(std::span<const std::uint8_t> key);

    /** @return HMAC(key, @p message). */
    Sha256Digest mac(std::span<const std::uint8_t> message) const;

  private:
    Sha256 inner_; //!< state after absorbing key ^ ipad
    Sha256 outer_; //!< state after absorbing key ^ opad
};

/** HMAC-SHA256 per RFC 2104. */
Sha256Digest hmacSha256(std::span<const std::uint8_t> key,
                        std::span<const std::uint8_t> message);

} // namespace sentry::crypto

#endif // SENTRY_CRYPTO_SHA256_HH
