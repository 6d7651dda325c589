/**
 * @file
 * TrustZone shared-memory cache side channel (Ahn & Lee, PAPERS.md).
 *
 * The secure and normal worlds share the L2, and secure services hand
 * results to the normal world through a cacheable shared mailbox
 * buffer. A naive service that indexes the mailbox with secret data
 * (here: one cache line per secret nibble value) leaks that secret:
 * the normal-world attacker evicts the mailbox lines, triggers the
 * SMC, and times reloads — the single hot line names the nibble.
 *
 * The hardened service touches every mailbox line in a fixed order on
 * every call, making the reload profile secret-independent; the
 * attacker sees all lines hot and recovers nothing. This is the
 * constant-touch discipline Sentry's secure-world helpers follow.
 */

#ifndef SENTRY_ATTACKS_V2_TZ_SIDE_CHANNEL_HH
#define SENTRY_ATTACKS_V2_TZ_SIDE_CHANNEL_HH

#include <array>

#include "attacks/v2/attack.hh"
#include "common/types.hh"

namespace sentry::attacks::v2
{

/** Mailbox lines = one per nibble value. */
constexpr unsigned TZ_MAILBOX_LINES = 16;
/** Nibbles of the fuse secret the demo service processes per run. */
constexpr unsigned TZ_SECRET_NIBBLES = 8;

/**
 * The victim: a secure-world service that processes the fuse secret
 * nibble by nibble and touches the shared mailbox as it goes.
 */
class TzSecretService
{
  public:
    /**
     * Bind the service to @p soc with its mailbox at @p shared_base
     * (TZ_MAILBOX_LINES cache lines of cacheable DRAM).
     * @param hardened touch all mailbox lines per call instead of the
     *        secret-indexed one.
     */
    TzSecretService(hw::Soc &soc, PhysAddr shared_base, bool hardened);

    /** @return false when the device's firmware is locked (no secure
     * world, hence no service). */
    bool available() const { return available_; }

    /** @return nibble @p i of the fuse secret (test oracle). */
    unsigned nibble(unsigned i) const;

    /** SMC: process nibble @p i, touching the mailbox accordingly. */
    void invoke(unsigned i);

  private:
    hw::Soc &soc_;
    PhysAddr sharedBase_;
    bool hardened_;
    bool available_ = false;
    std::array<std::uint8_t, 32> secret_{};
};

/** Attacker-side configuration. */
struct TzSideChannelConfig
{
    /** Attacker-owned cacheable region for eviction sets; must span at
     * least (ways+1) * waySizeBytes. */
    PhysAddr attackerBase = 0;
    std::size_t attackerSpan = 0;
};

/** The normal-world attacker. */
class TzSideChannelAttack : public Attack
{
  public:
    TzSideChannelAttack(TzSideChannelConfig config, TzSecretService &service,
                        std::uint64_t seed)
        : Attack("tz_side_channel", seed), config_(config),
          service_(service)
    {}

    /** Per-nibble recovered value, or -1 when ambiguous. */
    const std::array<int, TZ_SECRET_NIBBLES> &recovered() const
    {
        return recovered_;
    }

  protected:
    AttackOutcome execute(hw::Soc &soc) override;

  private:
    TzSideChannelConfig config_;
    TzSecretService &service_;
    std::array<int, TZ_SECRET_NIBBLES> recovered_{};
};

} // namespace sentry::attacks::v2

#endif // SENTRY_ATTACKS_V2_TZ_SIDE_CHANNEL_HH
