/**
 * @file
 * Allocator for on-SoC storage regions.
 *
 * Manages the usable portion of iRAM (the first 64 KB belong to the
 * platform firmware — overwriting them crashes the tablet, paper
 * section 4.5) and any locked-L2 page pools handed to it, and carves
 * them into regions for AES state, key storage, and pager frames.
 */

#ifndef SENTRY_CORE_ONSOC_ALLOCATOR_HH
#define SENTRY_CORE_ONSOC_ALLOCATOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace sentry::core
{

/** A carved-out region of on-SoC storage. */
struct OnSocRegion
{
    PhysAddr base = 0;
    std::size_t size = 0;

    bool valid() const { return size > 0; }

    bool operator==(const OnSocRegion &) const = default;
};

/** First-fit allocator over one contiguous on-SoC window. */
class OnSocAllocator
{
  public:
    /** Manage [base, base+size). */
    OnSocAllocator(PhysAddr base, std::size_t size);

    /**
     * Build the standard iRAM allocator: the device's iRAM window minus
     * the firmware-reserved prefix.
     */
    static OnSocAllocator forIram(std::size_t iram_size);

    /** Allocate @p size bytes (16-byte aligned); fatal on exhaustion. */
    OnSocRegion alloc(std::size_t size);

    /** Allocate, returning an invalid region instead of dying. */
    OnSocRegion tryAlloc(std::size_t size);

    /** Release a region previously returned by alloc(). */
    void free(const OnSocRegion &region);

    /** @return bytes currently free. */
    std::size_t freeBytes() const;

    /** @return total managed bytes. */
    std::size_t capacity() const { return size_; }

    bool operator==(const OnSocAllocator &) const = default;

  private:
    struct Chunk
    {
        PhysAddr base;
        std::size_t size;

        bool operator==(const Chunk &) const = default;
    };

    PhysAddr base_;
    std::size_t size_;
    std::vector<Chunk> freeList_; // sorted by base, coalesced
};

} // namespace sentry::core

#endif // SENTRY_CORE_ONSOC_ALLOCATOR_HH
