/**
 * @file
 * JTAG debug port model (paper section 3.2).
 *
 * JTAG gives an attacker full memory visibility, but the paper
 * classifies it as preventable: vendors either depopulate the connector
 * (defeated by re-soldering a cable), burn a hardware fuse at
 * provisioning time (permanent), or require authentication
 * ("authenticated JTAG"). All three policies are modelled so the attack
 * matrix can show which ones actually hold.
 */

#ifndef SENTRY_HW_JTAG_HH
#define SENTRY_HW_JTAG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sentry::hw
{

class Soc;

/** How the vendor shipped the JTAG interface. */
enum class JtagPolicy
{
    Enabled,        //!< development parts
    Depopulated,    //!< connector removed (re-solderable!)
    FuseDisabled,   //!< hardware fuse burned at provisioning
    Authenticated,  //!< reader must present the vendor credential
};

/** @return printable policy name. */
const char *jtagPolicyName(JtagPolicy policy);

/** Result of a JTAG connection attempt. */
enum class JtagStatus
{
    Connected,
    NoConnector,    //!< depopulated and not re-soldered
    Disabled,       //!< fuse burned: permanently dead
    AuthRequired,   //!< credential missing or wrong
};

/** The debug port. */
class JtagPort
{
  public:
    explicit JtagPort(JtagPolicy policy,
                      std::string vendor_credential = "");

    JtagPolicy policy() const { return policy_; }

    /** Solder a cable onto the depopulated pad (paper: Riff Box). */
    void resolderConnector();

    /**
     * Attempt to attach a debugger.
     * @param credential authentication string (Authenticated policy)
     */
    JtagStatus connect(const std::string &credential = "");

    /**
     * Halt the cores and dump memory through the debug access port.
     * Sees everything: DRAM, iRAM, even locked cache lines. This is why
     * JTAG must be disabled on production devices.
     * @return the dump, or empty when no debugger is attached.
     */
    std::vector<std::uint8_t> dumpMemory(Soc &soc, PhysAddr base,
                                         std::size_t len);

  private:
    JtagPolicy policy_;
    std::string credential_;
    bool connectorPresent_;
    bool connected_ = false;
};

} // namespace sentry::hw

#endif // SENTRY_HW_JTAG_HH
