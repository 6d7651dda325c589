#include "hw/jtag.hh"

#include "hw/soc.hh"

namespace sentry::hw
{

const char *
jtagPolicyName(JtagPolicy policy)
{
    switch (policy) {
      case JtagPolicy::Enabled:
        return "enabled";
      case JtagPolicy::Depopulated:
        return "depopulated";
      case JtagPolicy::FuseDisabled:
        return "fuse-disabled";
      case JtagPolicy::Authenticated:
        return "authenticated";
      default:
        return "?";
    }
}

JtagPort::JtagPort(JtagPolicy policy, std::string vendor_credential)
    : policy_(policy), credential_(std::move(vendor_credential)),
      connectorPresent_(policy != JtagPolicy::Depopulated)
{}

void
JtagPort::resolderConnector()
{
    connectorPresent_ = true;
}

JtagStatus
JtagPort::connect(const std::string &credential)
{
    if (policy_ == JtagPolicy::FuseDisabled)
        return JtagStatus::Disabled;
    if (!connectorPresent_)
        return JtagStatus::NoConnector;
    if (policy_ == JtagPolicy::Authenticated &&
        credential != credential_) {
        return JtagStatus::AuthRequired;
    }
    connected_ = true;
    return JtagStatus::Connected;
}

std::vector<std::uint8_t>
JtagPort::dumpMemory(Soc &soc, PhysAddr base, std::size_t len)
{
    if (!connected_)
        return {};
    // The debug access port sits inside the SoC: it sees the coherent
    // view, including locked cache lines and iRAM.
    std::vector<std::uint8_t> dump(len);
    soc.memory().read(base, dump.data(), len);
    return dump;
}

} // namespace sentry::hw
