/**
 * @file
 * Virtual memory areas (VMAs) of a process.
 *
 * VMAs carry the attributes Sentry's encrypt-on-lock walk cares about:
 *   - DmaRegion VMAs are accessed by devices via physical addresses and
 *     never page-fault, so Sentry must decrypt them eagerly on unlock;
 *   - the share policy decides whether a page is skipped (shared with a
 *     non-sensitive process) or encrypted (private / shared only among
 *     sensitive processes) — paper section 7.
 */

#ifndef SENTRY_OS_ADDRESS_SPACE_HH
#define SENTRY_OS_ADDRESS_SPACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sentry::os
{

/** What a VMA holds. */
enum class VmaType
{
    Code,
    Heap,
    Stack,
    DmaRegion, //!< GPU / I-O buffers accessed by physical address
};

/** Page-sharing policy of a VMA. */
enum class SharePolicy
{
    Private,
    SharedSensitiveOnly, //!< shared, but only among sensitive processes
    SharedWithNonSensitive,
};

/** One contiguous virtual mapping. */
struct Vma
{
    std::string name;
    VmaType type;
    SharePolicy share = SharePolicy::Private;
    VirtAddr base = 0;
    std::size_t size = 0;

    VirtAddr end() const { return base + size; }
    std::size_t pages() const { return size / PAGE_SIZE; }
    bool contains(VirtAddr va) const { return va >= base && va < end(); }

    bool operator==(const Vma &) const = default;
};

/** The ordered set of VMAs of one process. */
class AddressSpace
{
  public:
    /**
     * Append a VMA of @p size bytes (page aligned) after the last one,
     * leaving a guard gap.
     * @return the new VMA.
     */
    Vma &addVma(std::string name, VmaType type, std::size_t size,
                SharePolicy share);

    /** @return the VMA containing @p va, or nullptr. */
    const Vma *findVma(VirtAddr va) const;

    /** @return all VMAs. */
    const std::vector<Vma> &vmas() const { return vmas_; }
    std::vector<Vma> &vmas() { return vmas_; }

    /** @return total mapped bytes. */
    std::size_t totalBytes() const;

    bool operator==(const AddressSpace &) const = default;

  private:
    /** Process VAs start here; gap between VMAs. */
    static constexpr VirtAddr VA_BASE = 0x0001'0000;
    static constexpr VirtAddr VA_GAP = 16 * PAGE_SIZE;

    std::vector<Vma> vmas_;
    VirtAddr nextBase_ = VA_BASE;
};

} // namespace sentry::os

#endif // SENTRY_OS_ADDRESS_SPACE_HH
