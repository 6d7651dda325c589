/**
 * @file
 * The one shared statement of Sentry's security invariants.
 *
 * Both the fleet scenario engine and the FaultSim fuzzer assert the
 * same properties after every step; this class is that single
 * implementation so the two can never drift apart:
 *
 *   - live-device invariants (checkLive): everything SecurityAudit
 *     verifies — key residency, page states, flush-mask coverage,
 *     absence of the registered plaintext markers from DRAM, freed-page
 *     scrubbing — using the markers registered with addMarker();
 *   - attacker's-view invariants (checkDumps): a memory image obtained
 *     by an attack (DMA dump, cold-boot readout) must not contain any
 *     sensitive marker; the Soc overload greps the device's memory in
 *     place, as the attacker's post-reset readout would see it;
 *   - power-event invariant (checkIramZeroed): after any power loss the
 *     boot firmware must have left iRAM all-zero (Table 2's "0%
 *     recovered" row).
 *
 * The checker owns the marker list (one entry per planted app secret);
 * callers register markers at spawn time and the same list feeds every
 * check.
 *
 * checkLive is incremental: the checker keeps one ScanMemo per needle
 * (the volatile key and each sensitive marker) and hands them to
 * SecurityAudit::run, so each audit greps only the DRAM pages written
 * since that needle was last found absent. A new checker's first audit
 * scans everything, and so does any audit after a fork onto another
 * image, a power event or zeroAll, which stamp every page.
 */

#ifndef SENTRY_CORE_INVARIANT_CHECKER_HH
#define SENTRY_CORE_INVARIANT_CHECKER_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/security_audit.hh"

namespace sentry::hw
{
class Soc;
}

namespace sentry::core
{

/** One planted secret the invariants are checked against. */
struct SecretMarker
{
    std::string owner;               //!< process/app that holds it
    std::vector<std::uint8_t> bytes; //!< the plaintext pattern
    bool sensitive = true;           //!< Sentry-protected owner?
};

/** Outcome of one invariant check. */
struct CheckOutcome
{
    bool ok = true;
    std::string detail; //!< first violated invariant (empty when ok)
};

/** What an attacker's memory image yielded. */
struct DumpLeaks
{
    unsigned sensitiveProbed = 0; //!< sensitive markers searched for
    unsigned sensitiveLeaked = 0; //!< ...found in the dump (violation)
    unsigned nonSensitiveLeaks = 0; //!< unprotected markers found (ok)
    std::string firstLeakedOwner; //!< owner of the first violation
};

/** The shared invariant set. */
class InvariantChecker
{
  public:
    InvariantChecker(os::Kernel &kernel, Sentry &sentry)
        : kernel_(kernel), sentry_(sentry)
    {}

    /** Register a planted secret; feeds all subsequent checks. */
    void addMarker(SecretMarker marker);

    /** Drop all registered markers. */
    void clearMarkers() { markers_.clear(); }

    /** @return the registered markers. */
    const std::vector<SecretMarker> &markers() const { return markers_; }

    /**
     * Run the full live-device invariant set (SecurityAudit with the
     * sensitive markers and this checker's memo). @return the first
     * violation, if any.
     */
    CheckOutcome checkLive();

    /**
     * Grep an attacker-obtained memory image for every marker.
     * Sensitive hits are violations; non-sensitive hits are recorded
     * for context (an unprotected app leaking is expected).
     */
    DumpLeaks checkDumps(std::span<const std::uint8_t> dram_dump,
                         std::span<const std::uint8_t> iram_dump) const;

    /** As above, for the memory @p soc holds right now (a cold-boot
     * readout), searched in place through DramScanner. */
    DumpLeaks checkDumps(const hw::Soc &soc) const;

    /** Assert the post-power-event firmware invariant: iRAM all-zero. */
    CheckOutcome checkIramZeroed(const hw::Soc &soc) const;

  private:
    os::Kernel &kernel_;
    Sentry &sentry_;
    std::vector<SecretMarker> markers_;
    AuditMemo memo_;
};

} // namespace sentry::core

#endif // SENTRY_CORE_INVARIANT_CHECKER_HH
