/**
 * @file
 * Programmatic security audit: the invariants Sentry promises, checked
 * on a live device. Integrators run this in tests/CI after wiring
 * Sentry into their platform; our own test suite and examples use it
 * too.
 *
 * Checks (each returns a finding rather than asserting):
 *   - root keys present on the SoC and absent from DRAM;
 *   - while locked/suspended: no sensitive process has a decrypted,
 *     DRAM-resident page (on-SoC pager residents are fine);
 *   - the PL310 flush-way mask covers every locked way (the section
 *     4.5 OS change is actually in force);
 *   - caller-supplied plaintext markers do not appear in DRAM while
 *     locked;
 *   - freed pages are scrubbed when the device is locked.
 *
 * The DRAM greps (the volatile key, the markers) are full scans unless
 * the caller hands run() an AuditMemo; then each needle is searched
 * only in the pages written since it was last found absent (see
 * DramScanner). Both give the same findings.
 */

#ifndef SENTRY_CORE_SECURITY_AUDIT_HH
#define SENTRY_CORE_SECURITY_AUDIT_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/dram_scanner.hh"
#include "core/sentry.hh"
#include "os/kernel.hh"

namespace sentry::core
{

/** One audit finding. */
struct AuditFinding
{
    std::string check;
    bool passed;
    std::string detail;
};

/** Aggregate result. */
struct AuditReport
{
    std::vector<AuditFinding> findings;

    /** @return true when every check passed. */
    bool allPassed() const;

    /** @return a printable multi-line summary. */
    std::string summary() const;
};

/** Incremental-scan state one caller keeps across audits of one
 * device (InvariantChecker does). */
struct AuditMemo
{
    ScanMemo key;                  //!< the volatile root key
    std::vector<ScanMemo> markers; //!< each plaintext marker, by position
};

/** The auditor. */
class SecurityAudit
{
  public:
    SecurityAudit(os::Kernel &kernel, Sentry &sentry)
        : kernel_(kernel), sentry_(sentry)
    {}

    /**
     * Run all checks.
     * @param plaintext_markers byte strings that must not be in DRAM
     *        while the device is locked (e.g. known app secrets)
     * @param memo when non-null, the DRAM greps are incremental over
     *        the pages written since the memo's previous audit of this
     *        device; null runs the full-scan reference
     */
    AuditReport
    run(std::span<const std::vector<std::uint8_t>> plaintext_markers = {},
        AuditMemo *memo = nullptr);

  private:
    void checkKeyResidency(AuditReport &report, AuditMemo *memo);
    void checkPageStates(AuditReport &report);
    void checkFlushMask(AuditReport &report);
    void checkMarkers(
        AuditReport &report,
        std::span<const std::vector<std::uint8_t>> plaintext_markers,
        AuditMemo *memo);
    void checkFreedPages(AuditReport &report);

    bool deviceLocked() const;

    os::Kernel &kernel_;
    Sentry &sentry_;
};

} // namespace sentry::core

#endif // SENTRY_CORE_SECURITY_AUDIT_HH
