/**
 * @file
 * AES-128/192/256 block cipher (FIPS-197), implemented from scratch.
 *
 * Two independent implementations are provided:
 *   - the T-table fast path (aes_round.hh engine with NativeAesEnv),
 *     structurally identical to OpenSSL's — this is the paper's
 *     "generic AES" baseline, including its table-access side channel;
 *   - a canonical step-by-step path (SubBytes/ShiftRows/MixColumns)
 *     used to cross-validate the fast path in the test suite.
 */

#ifndef SENTRY_CRYPTO_AES_HH
#define SENTRY_CRYPTO_AES_HH

#include <cstdint>
#include <span>

#include "crypto/aes_tables.hh"

namespace sentry::crypto
{

/** Maximum round-key words: AES-256 has 15 round keys of 4 words. */
constexpr unsigned AES_MAX_KEY_WORDS = 60;

/**
 * Expanded AES key schedule.
 *
 * Holds both the encryption schedule and the equivalent-inverse-cipher
 * decryption schedule (reversed round order, InvMixColumns applied to
 * the middle rounds).
 */
class AesKeySchedule
{
  public:
    /** Expand @p key; its size (16/24/32 bytes) selects the variant. */
    explicit AesKeySchedule(std::span<const std::uint8_t> key);

    /** @return number of rounds (10, 12, or 14). */
    unsigned rounds() const { return rounds_; }

    /** @return key length in bytes (16, 24, or 32). */
    unsigned keyBytes() const { return keyBytes_; }

    /** @return encryption round-key words, 4*(rounds+1) of them. */
    std::span<const std::uint32_t>
    encWords() const
    {
        return {enc_, 4 * (rounds_ + 1)};
    }

    /** @return decryption round-key words (equivalent inverse cipher). */
    std::span<const std::uint32_t>
    decWords() const
    {
        return {dec_, 4 * (rounds_ + 1)};
    }

    /** Scrub the schedule from memory. */
    void scrub();

    bool operator==(const AesKeySchedule &) const = default;

  private:
    std::uint32_t enc_[AES_MAX_KEY_WORDS] = {};
    std::uint32_t dec_[AES_MAX_KEY_WORDS] = {};
    unsigned rounds_;
    unsigned keyBytes_;
};

/** Direct-array environment for the aes_round.hh engine. */
class NativeAesEnv
{
  public:
    explicit NativeAesEnv(const AesKeySchedule &schedule)
        : tables_(aesTables()), schedule_(schedule)
    {}

    std::uint32_t te(unsigned t, std::uint8_t i) const
    {
        return tables_.te[t][i];
    }
    std::uint32_t td(unsigned t, std::uint8_t i) const
    {
        return tables_.td[t][i];
    }
    std::uint8_t sbox(std::uint8_t i) const { return tables_.sbox[i]; }
    std::uint8_t invSbox(std::uint8_t i) const { return tables_.invSbox[i]; }
    std::uint32_t encKey(unsigned i) const { return schedule_.encWords()[i]; }
    std::uint32_t decKey(unsigned i) const { return schedule_.decWords()[i]; }
    unsigned rounds() const { return schedule_.rounds(); }

  private:
    const AesTables &tables_;
    const AesKeySchedule &schedule_;
};

/**
 * The generic AES block cipher (paper terminology: "unsafe AES" /
 * "generic AES"): all state lives in ordinary host memory.
 */
class Aes
{
  public:
    /** @param key 16-, 24-, or 32-byte key. */
    explicit Aes(std::span<const std::uint8_t> key);

    /** Encrypt a single 16-byte block (T-table path). */
    void encryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const;

    /** Decrypt a single 16-byte block (T-table path). */
    void decryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const;

    /** Encrypt via the canonical FIPS-197 step-by-step algorithm. */
    void encryptBlockCanonical(const std::uint8_t in[16],
                               std::uint8_t out[16]) const;

    /** Decrypt via the canonical FIPS-197 step-by-step algorithm. */
    void decryptBlockCanonical(const std::uint8_t in[16],
                               std::uint8_t out[16]) const;

    /** @return the expanded key schedule. */
    const AesKeySchedule &schedule() const { return schedule_; }

    /** @return number of rounds. */
    unsigned rounds() const { return schedule_.rounds(); }

  private:
    AesKeySchedule schedule_;
};

} // namespace sentry::crypto

#endif // SENTRY_CRYPTO_AES_HH
