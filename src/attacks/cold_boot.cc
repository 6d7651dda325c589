#include "attacks/cold_boot.hh"

#include "common/logging.hh"

namespace sentry::attacks
{

const char *
coldBootVariantName(ColdBootVariant variant)
{
    switch (variant) {
      case ColdBootVariant::OsReboot:
        return "os-reboot";
      case ColdBootVariant::DeviceReflash:
        return "device-reflash";
      case ColdBootVariant::TwoSecondReset:
        return "2s-reset";
      default:
        return "?";
    }
}

void
ColdBootAttack::performReset(hw::Soc &soc) const
{
    switch (variant_) {
      case ColdBootVariant::OsReboot:
        // No power disconnect: memory cells keep everything; the
        // attacker OS image overwrites its own footprint.
        soc.warmReboot();
        break;
      case ColdBootVariant::DeviceReflash:
        // Tapping RESET: ~7 ms without power, then the boot ROM runs
        // (zeroing iRAM) and loads the minimal flashing tool.
        soc.powerCycle(0.007, celsius_);
        break;
      case ColdBootVariant::TwoSecondReset:
        soc.powerCycle(2.0, celsius_);
        break;
    }
}

v2::AttackOutcome
ColdBootAttack::run(hw::Soc &soc, std::span<const std::uint8_t> secret,
                    const std::string &target) const
{
    performReset(soc);

    v2::AttackOutcome result;
    result.attack = std::string("cold-boot/") + coldBootVariantName(variant_);
    result.target = target;

    // The attacker-controlled boot dumps every physical byte.
    const bool inDram = soc.dram().cells().contains(secret);
    const bool inIram = soc.iram().cells().contains(secret);
    result.secretRecovered = inDram || inIram;
    if (inDram)
        result.notes.push_back("secret found in DRAM dump");
    if (inIram)
        result.notes.push_back("secret found in iRAM dump");
    return result;
}

RemanenceMeasurement
ColdBootAttack::measureRemanence(hw::Soc &soc,
                                 std::span<const std::uint8_t> pattern) const
{
    const hw::CowBytes &dram = soc.dram().cells();
    const hw::CowBytes &iram = soc.iram().cells();
    const std::size_t dramBefore = dram.countPattern(pattern);
    const std::size_t iramBefore = iram.countPattern(pattern);
    if (dramBefore == 0 || iramBefore == 0)
        fatal("remanence measurement requires pre-filled memories");

    performReset(soc);

    RemanenceMeasurement measurement;
    measurement.dramFraction =
        static_cast<double>(dram.countPattern(pattern)) /
        static_cast<double>(dramBefore);
    measurement.iramFraction =
        static_cast<double>(iram.countPattern(pattern)) /
        static_cast<double>(iramBefore);
    return measurement;
}

} // namespace sentry::attacks
