/**
 * @file
 * Code-injection attacks (paper section 3.2): attempts to *modify*
 * state on the platform rather than read it.
 *
 * Two vectors are modelled:
 *   - DMA writes from a compromised peripheral (stopped by TrustZone
 *     region protection, since there is no IOMMU);
 *   - replacing the boot firmware with a version that skips the iRAM/
 *     cache zeroing (stopped by the manufacturer-signature check).
 * The bus-analyzer write-injection vector is out of scope exactly as in
 * the paper: electrically unsound, ~$100k+ to even attempt.
 */

#ifndef SENTRY_ATTACKS_CODE_INJECTION_HH
#define SENTRY_ATTACKS_CODE_INJECTION_HH

#include <cstdint>
#include <span>

#include "attacks/v2/attack.hh"
#include "hw/soc.hh"

namespace sentry::attacks
{

/** The state-modifying attacker. */
class CodeInjectionAttack
{
  public:
    /**
     * Try to overwrite [addr, addr+payload.size()) via DMA.
     * @return result; secretRecovered=true means the write landed.
     */
    v2::AttackOutcome injectViaDma(hw::Soc &soc, PhysAddr addr,
                                   std::span<const std::uint8_t> payload,
                                   const std::string &target);

    /**
     * Try to install a malicious (unsigned) boot firmware image that
     * would skip the zeroing of on-SoC storage.
     */
    v2::AttackOutcome replaceFirmware(hw::Soc &soc,
                                      std::span<const std::uint8_t> image);
};

} // namespace sentry::attacks

#endif // SENTRY_ATTACKS_CODE_INJECTION_HH
