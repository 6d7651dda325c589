#include "attacks/code_injection.hh"

#include <vector>

namespace sentry::attacks
{

v2::AttackOutcome
CodeInjectionAttack::injectViaDma(hw::Soc &soc, PhysAddr addr,
                                  std::span<const std::uint8_t> payload,
                                  const std::string &target)
{
    v2::AttackOutcome result;
    result.attack = "code-injection/dma";
    result.target = target;

    const hw::DmaStatus status =
        soc.dma().writeMemory(addr, payload.data(), payload.size());
    if (status == hw::DmaStatus::Ok) {
        // Verify the payload actually landed (read back over DMA).
        std::vector<std::uint8_t> check(payload.size());
        if (soc.dma().readMemory(addr, check.data(), check.size()) ==
                hw::DmaStatus::Ok &&
            std::equal(check.begin(), check.end(), payload.begin())) {
            result.secretRecovered = true; // i.e. the injection landed
            result.notes.push_back("payload written via DMA");
        }
    } else if (status == hw::DmaStatus::DeniedByTrustZone) {
        result.notes.push_back("write denied by TrustZone");
    } else {
        result.notes.push_back("write rejected (bad address)");
    }
    return result;
}

v2::AttackOutcome
CodeInjectionAttack::replaceFirmware(hw::Soc &soc,
                                     std::span<const std::uint8_t> image)
{
    v2::AttackOutcome result;
    result.attack = "code-injection/firmware";
    result.target = "boot ROM (zeroing logic)";

    // The attacker's image is, by definition, not signed with the
    // manufacturer key.
    const bool accepted =
        soc.firmware().acceptImage(image, /*signed_by_manufacturer=*/false);
    result.secretRecovered = accepted;
    result.notes.push_back(accepted ? "unsigned image accepted (bug!)"
                                    : "unsigned image rejected");
    return result;
}

} // namespace sentry::attacks
