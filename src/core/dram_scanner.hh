/**
 * @file
 * Memory-forensics helper: searches simulated storage for secrets, the
 * way an attacker greps a memory dump (and the way our invariant tests
 * assert that Sentry never leaks plaintext to DRAM).
 *
 * This is the one place that greps device memory. Every scan walks the
 * COW pages in place (hw::CowBytes::contains / countPattern /
 * firstNonZero) instead of materializing the array. A DRAM search
 * given a ScanMemo is incremental: it visits only the pages stamped
 * since the needle was last found absent. iRAM is always searched in
 * full: it is small, and the iRAM-placed AES engine writes it through
 * an unstamped pointer.
 */

#ifndef SENTRY_CORE_DRAM_SCANNER_HH
#define SENTRY_CORE_DRAM_SCANNER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "hw/soc.hh"

namespace sentry::core
{

/**
 * What an incremental DRAM search remembers about one needle between
 * scans of one device: the DRAM write generation at which the needle
 * was last found absent. A different needle, or a hit, resets it.
 */
struct ScanMemo
{
    std::vector<std::uint8_t> needle; //!< the bytes absentAt refers to
    std::uint64_t absentAt = 0;       //!< 0 = not known absent
};

/** Read-only scans over the device's storage arrays. */
class DramScanner
{
  public:
    explicit DramScanner(const hw::Soc &soc) : soc_(soc) {}

    /**
     * @return true if @p needle appears anywhere in DRAM cells. With a
     * @p memo the search skips pages unchanged since the memo's
     * generation, and updates the memo; without one it is a full scan.
     */
    bool dramContains(std::span<const std::uint8_t> needle,
                      ScanMemo *memo = nullptr) const;

    /** @return true if @p needle appears anywhere in iRAM cells. */
    bool iramContains(std::span<const std::uint8_t> needle) const;

    /** Count aligned occurrences of @p pattern in DRAM (Table 2 grep). */
    std::size_t dramPatternCount(std::span<const std::uint8_t> pattern) const;

    /** Count aligned occurrences of @p pattern in iRAM. */
    std::size_t iramPatternCount(std::span<const std::uint8_t> pattern) const;

    /** @return the offset of the first non-zero iRAM byte, or the iRAM
     * size when it is all zero. */
    std::size_t iramFirstNonZero() const;

  private:
    const hw::Soc &soc_;
};

} // namespace sentry::core

#endif // SENTRY_CORE_DRAM_SCANNER_HH
