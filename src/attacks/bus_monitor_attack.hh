/**
 * @file
 * Bus-monitoring attack (paper section 3.1): a probe on the DDR traces
 * records every transaction between the SoC and DRAM.
 *
 * Two capabilities are modelled:
 *
 *   1. payload capture: any secret byte that crosses the bus is
 *      captured directly;
 *   2. the access-pattern side channel: even though AES lookup tables
 *      hold no secrets, *which* table lines are fetched during an
 *      encryption leaks the key (Tromer/Osvik/Shamir). A first-round
 *      known-plaintext analysis recovers the top five bits of every key
 *      byte (cache-line granularity: 32-byte lines, 4-byte entries).
 *
 * Against AES On SoC both capabilities come up empty: the state never
 * crosses the bus.
 */

#ifndef SENTRY_ATTACKS_BUS_MONITOR_ATTACK_HH
#define SENTRY_ATTACKS_BUS_MONITOR_ATTACK_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "attacks/v2/attack.hh"
#include "common/rng.hh"
#include "crypto/aes_on_soc.hh"
#include "hw/bus_monitor.hh"
#include "hw/soc.hh"

namespace sentry::attacks
{

/** Result of the AES access-pattern analysis. */
struct SideChannelResult
{
    /** Table-region reads were visible on the bus at all. */
    bool accessPatternsVisible = false;
    /** Per key byte: recovered top-5-bits (value & 0xF8), if pinned
     *  down to a single 8-value class. */
    std::vector<std::optional<std::uint8_t>> keyByteHighBits;

    /** @return number of key bytes whose high bits were recovered. */
    std::size_t recoveredBytes() const;
};

/** The probe-wielding attacker. */
class BusMonitorAttack
{
  public:
    /** Attach a payload-capturing probe to @p soc's memory bus. */
    explicit BusMonitorAttack(hw::Soc &soc);

    /**
     * Attach an address-only probe that feeds every payload to
     * @p matcher as it crosses the bus and stores none: the secrets
     * are grepped in flight (analyzeForSecret() then sees nothing;
     * read @p matcher instead). @p matcher must outlive the probe.
     */
    BusMonitorAttack(hw::Soc &soc, StreamMatcher &matcher);
    ~BusMonitorAttack();

    BusMonitorAttack(const BusMonitorAttack &) = delete;
    BusMonitorAttack &operator=(const BusMonitorAttack &) = delete;

    /** Clear the capture buffer. */
    void startCapture();

    /** @return the raw probe. */
    const hw::BusMonitor &monitor() const { return monitor_; }

    /**
     * Search everything captured since startCapture() for @p secret:
     * the captured payloads, in order, streamed through a StreamMatcher.
     */
    v2::AttackOutcome analyzeForSecret(std::span<const std::uint8_t> secret,
                                       const std::string &target) const;

    /**
     * Run the first-round known-plaintext attack against @p engine.
     *
     * For each random plaintext the harness flushes the L2 (modelling
     * the cache pressure a busy system provides for free), encrypts one
     * block, and records which AES round-table lines were fetched over
     * the bus. Key-byte candidates inconsistent with the observed line
     * sets are eliminated.
     *
     * @param engine     the victim cipher (audited block interface)
     * @param num_blocks how many known plaintexts to use
     * @param rng        plaintext source
     */
    SideChannelResult recoverAesKeyBits(crypto::SimAesEngine &engine,
                                        unsigned num_blocks, Rng &rng);

  private:
    hw::Soc &soc_;
    hw::BusMonitor monitor_;
};

} // namespace sentry::attacks

#endif // SENTRY_ATTACKS_BUS_MONITOR_ATTACK_HH
