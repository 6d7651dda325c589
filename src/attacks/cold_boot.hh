/**
 * @file
 * Cold-boot attacks (paper section 3.1, Table 2 methodology).
 *
 * Three variants, matching the paper's board-reset experiments:
 *   - OsReboot:       reboot into an attacker OS with no power loss
 *                     (possible on unlocked bootloaders);
 *   - DeviceReflash:  tap the reset line (~7 ms power loss) and boot a
 *                     flashing tool — the Frost-style attack;
 *   - TwoSecondReset: hold reset for two seconds (module-yank model).
 *
 * After the boot, the attacker dumps all of DRAM and iRAM and greps the
 * dumps — for a known repeating pattern (the remanence measurement) or
 * for specific secret bytes (key recovery).
 */

#ifndef SENTRY_ATTACKS_COLD_BOOT_HH
#define SENTRY_ATTACKS_COLD_BOOT_HH

#include <cstdint>
#include <span>

#include "attacks/v2/attack.hh"
#include "hw/soc.hh"

namespace sentry::attacks
{

/** Which reset the attacker performs. */
enum class ColdBootVariant
{
    OsReboot,
    DeviceReflash,
    TwoSecondReset,
};

/** @return the paper's name for a variant. */
const char *coldBootVariantName(ColdBootVariant variant);

/** Remanence fractions measured by one attack (Table 2 cells). */
struct RemanenceMeasurement
{
    double iramFraction = 0.0;
    double dramFraction = 0.0;
};

/** The cold-boot attacker. */
class ColdBootAttack
{
  public:
    /**
     * @param variant  reset type
     * @param celsius  ambient temperature (cooling extends retention —
     *                 the household-freezer trick)
     */
    explicit ColdBootAttack(ColdBootVariant variant, double celsius = 22.0)
        : variant_(variant), celsius_(celsius)
    {}

    /** Perform the reset + attacker boot. Mutates the device. */
    void performReset(hw::Soc &soc) const;

    /**
     * Full attack: reset, dump, grep for @p secret.
     * @param target description for the report
     */
    v2::AttackOutcome run(hw::Soc &soc, std::span<const std::uint8_t> secret,
                          const std::string &target) const;

    /**
     * Table 2 methodology: count aligned occurrences of @p pattern in
     * iRAM and DRAM before and after the reset; report the surviving
     * fractions.
     */
    RemanenceMeasurement
    measureRemanence(hw::Soc &soc,
                     std::span<const std::uint8_t> pattern) const;

  private:
    ColdBootVariant variant_;
    double celsius_;
};

} // namespace sentry::attacks

#endif // SENTRY_ATTACKS_COLD_BOOT_HH
