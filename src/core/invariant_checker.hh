/**
 * @file
 * The one shared statement of Sentry's security invariants.
 *
 * Both the fleet scenario engine and the FaultSim fuzzer assert the
 * same properties after every step; this class is that single
 * implementation so the two can never drift apart:
 *
 *   - live-device invariants (checkLive): the volatile root key is on
 *     the SoC and absent from DRAM; while locked or suspended no
 *     sensitive process has a decrypted DRAM-resident page (on-SoC
 *     pager residents are fine); the PL310 flush-way mask covers every
 *     locked way (the section 4.5 OS change is in force); the
 *     registered sensitive markers are absent from DRAM; freed pages
 *     are scrubbed;
 *   - attacker's-view invariants (checkDumps): a memory image obtained
 *     by an attack (DMA dump, cold-boot readout) must not contain any
 *     sensitive marker; the Soc overload greps the device's memory in
 *     place, as the attacker's post-reset readout would see it, and the
 *     StreamMatcher overload scores images that were grepped as they
 *     streamed past (a DMA sweep) instead of being materialized;
 *   - power-event invariant (checkIramZeroed): after any power loss the
 *     boot firmware must have left iRAM all-zero (Table 2's "0%
 *     recovered" row).
 *
 * The checker owns the marker list (one entry per planted app secret);
 * callers register markers at spawn time and the same list feeds every
 * check. Device memory is grepped in place through hw::CowBytes
 * (contains, firstNonZero), never materialized.
 *
 * checkLive is incremental: the checker keeps, per needle (the
 * volatile key and each sensitive marker), the DRAM write generation
 * at which it was last found absent, and greps only the pages written
 * since. The key's entry starts over when the key bytes change. A new
 * checker's first audit scans everything (the full-scan reference),
 * and so does any audit after a fork onto another image or zeroAll,
 * which stamp every page. A power loss stamps only the pages its decay
 * changes, and a grep skips the never-written ones it deferred
 * (hw/cow_bytes.hh) for a marker with a byte outside {0x00, 0xFF}.
 */

#ifndef SENTRY_CORE_INVARIANT_CHECKER_HH
#define SENTRY_CORE_INVARIANT_CHECKER_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "core/sentry.hh"
#include "os/kernel.hh"

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

    /** @return the registered markers. */
    const std::vector<SecretMarker> &markers() const { return markers_; }

    /**
     * Clean the unlocked L2 ways to DRAM, then run the live-device
     * checks in order: key-residency, page-states, flush-mask,
     * plaintext-markers (the sensitive markers), freed-pages.
     * @return the first violation, as "check — detail", if any.
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
     * readout), searched in place. */
    DumpLeaks checkDumps(const hw::Soc &soc) const;

    /** @return a matcher holding every registered marker, in order:
     * stream one attacker image through it for the overload below. */
    StreamMatcher markerMatcher() const;

    /** As checkDumps(span, span), for a DRAM and an iRAM image that
     * were each streamed through their own markerMatcher(). */
    DumpLeaks checkDumps(const StreamMatcher &dram_image,
                         const StreamMatcher &iram_image) const;

    /** Assert the post-power-event firmware invariant: iRAM all-zero. */
    CheckOutcome checkIramZeroed(const hw::Soc &soc) const;

  private:
    os::Kernel &kernel_;
    Sentry &sentry_;
    std::vector<SecretMarker> markers_;
    /* checkLive's incremental state: the DRAM write generation at which
     * a needle was last found absent, 0 when not known absent. */
    RootKey key_{};                 //!< the key keyAbsentAt_ refers to
    std::uint64_t keyAbsentAt_ = 0;
    std::vector<std::uint64_t> markerAbsentAt_; //!< by marker position
};

} // namespace sentry::core

#endif // SENTRY_CORE_INVARIANT_CHECKER_HH
