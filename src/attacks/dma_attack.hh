/**
 * @file
 * DMA attack (paper section 3.1): a malicious or reprogrammed
 * DMA-capable peripheral reads arbitrary system memory while the device
 * is powered and locked. No CPU or OS cooperation is needed; the only
 * thing that can stop it is TrustZone's region protection (there is no
 * IOMMU), and the L2 cache is invisible to it by construction.
 */

#ifndef SENTRY_ATTACKS_DMA_ATTACK_HH
#define SENTRY_ATTACKS_DMA_ATTACK_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "attacks/v2/attack.hh"
#include "common/bytes.hh"
#include "hw/soc.hh"

namespace sentry::attacks
{

/** The DMA attacker. */
class DmaAttack
{
  public:
    /** A real DMA engine moves data in bounded bursts (descriptors). */
    static constexpr std::size_t BURST = 64 * KiB;

    /** Receives one burst of a sweep; the bytes are valid for the call. */
    using BurstFn = std::function<void(std::span<const std::uint8_t>)>;

    /**
     * Read [addr, addr+len) via DMA in BURST-sized transfers, in address
     * order, through one reused burst buffer, and hand each burst to
     * @p visit. A burst the controller refused reads as zeros.
     * @return the first non-Ok status encountered
     */
    hw::DmaStatus sweep(hw::Soc &soc, PhysAddr addr, std::size_t len,
                        const BurstFn &visit);

    /**
     * Sweep all of DRAM into @p dram, then all of iRAM into @p iram:
     * two images, two streams, no seam between them.
     * @return the iRAM sweep's status (TrustZone may refuse it)
     */
    hw::DmaStatus grepMemory(hw::Soc &soc, StreamMatcher &dram,
                             StreamMatcher &iram);

    /**
     * Dump [addr, addr+len) via DMA: the bursts of sweep(), concatenated.
     * @param status_out optional: the first non-Ok status encountered
     * @return dumped bytes (zeros where access was denied)
     */
    std::vector<std::uint8_t> dumpRange(hw::Soc &soc, PhysAddr addr,
                                        std::size_t len,
                                        hw::DmaStatus *status_out = nullptr);

    /**
     * Full attack: sweep all of DRAM and (if permitted) iRAM, grepping
     * the bursts for @p secret as they arrive.
     */
    v2::AttackOutcome run(hw::Soc &soc, std::span<const std::uint8_t> secret,
                          const std::string &target);
};

} // namespace sentry::attacks

#endif // SENTRY_ATTACKS_DMA_ATTACK_HH
