/**
 * @file
 * Physical page-frame allocator over the DRAM window.
 */

#ifndef SENTRY_OS_PHYS_ALLOCATOR_HH
#define SENTRY_OS_PHYS_ALLOCATOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace sentry::os
{

/**
 * Which DRAM-row partition an allocation must land in once CATT-style
 * row partitioning is enabled (see PhysAllocator::partitionRows).
 * Default keeps today's placement; Victim/Attacker are strict.
 */
enum class MemDomain
{
    Default,
    Victim,
    Attacker,
};

/**
 * CATT-style row-partitioning plan ("CAn't Touch This", Brasser et
 * al.): split each DRAM bank's rows into a victim region (kernel +
 * sensitive processes), a guard band no one may occupy, and an
 * attacker region. Rowhammer disturbance only reaches *bank-adjacent*
 * rows, so with at least one guard row an attacker frame can never
 * flip bits in a victim row.
 */
struct RowPartition
{
    std::size_t rowBytes = 0;      //!< 0 = partitioning disabled
    unsigned banks = 1;            //!< bank interleave factor
    std::size_t victimRowLimit = 0;//!< rows-in-bank < limit are victim
    std::size_t guardRows = 1;     //!< dead rows between the regions
    PhysAddr geomBase = 0;         //!< frame addr of DRAM row 0

    bool enabled() const { return rowBytes != 0; }
    bool operator==(const RowPartition &) const = default;
};

/**
 * Stack-based free-frame allocator (4 KiB frames).
 *
 * Allocated frames are a bitmap, one bit per frame. A fork restores the
 * allocator from an immutable image (Kernel::forkFrom); re-restoring
 * the image it already holds copies back only the free-list entries at
 * and above the lowest index any operation changed since.
 */
class PhysAllocator
{
  public:
    /** Manage frames in [base, base+size); both page aligned. */
    PhysAllocator(PhysAddr base, std::size_t size);

    /** Remove [base, base+size) from the pool (device carve-outs). */
    void reserveRange(PhysAddr base, std::size_t size);

    /** @return a free frame; fatal when exhausted. */
    PhysAddr allocFrame();

    /**
     * Domain-aware variant. With partitioning off (or Default before
     * any partition is set) this is exactly allocFrame(). With a
     * partition: Victim and Attacker are strict (fatal when their
     * region is empty); Default prefers victim rows but falls back to
     * any frame so total capacity is unchanged.
     */
    PhysAddr allocFrame(MemDomain domain);

    /** Like allocFrame(domain) but returns 0 instead of dying when no
     * qualifying frame exists. */
    PhysAddr tryAllocFrame(MemDomain domain);

    /** Install a row-partitioning plan (empty plan disables). */
    void partitionRows(const RowPartition &plan) { partition_ = plan; }

    /** @return the active row-partitioning plan. */
    const RowPartition &rowPartition() const { return partition_; }

    /** @return true if @p frame sits in a victim row. */
    bool inVictimRows(PhysAddr frame) const;

    /** @return true if @p frame sits past the guard band, in attacker
     * rows. */
    bool inAttackerRows(PhysAddr frame) const;

    /**
     * Allocate @p frames physically contiguous frames (for buffers that
     * are addressed without a page table, e.g. crypto state regions).
     * @return base of the run; fatal when no run exists.
     */
    PhysAddr allocContiguous(std::size_t frames);

    /** Return @p frame to the pool. */
    void freeFrame(PhysAddr frame);

    /** @return frames currently free. */
    std::size_t freeFrames() const { return freeList_.size(); }

    /** @return total frames managed (free + allocated). */
    std::size_t totalFrames() const { return totalFrames_; }

    /** @return the free frames in stack order: allocFrame() takes the
     * back one. */
    const std::vector<PhysAddr> &freeList() const { return freeList_; }

    /** @return true if @p frame is currently allocated. */
    bool isAllocated(PhysAddr frame) const;

    /**
     * Make this allocator equal to @p image. With @p same_image (this
     * allocator was last restored from @p image and has changed since
     * only through its own methods) only the free-list entries from
     * the low-water mark up are copied back; otherwise everything is.
     */
    void restore(const PhysAllocator &image, bool same_image);

    /** Equal frame state; the low-water mark is bookkeeping, not
     * state. */
    bool operator==(const PhysAllocator &other) const;

  private:
    std::size_t rowInBank(PhysAddr frame) const;

    /** Take freeList_[index] off the free list and mark it allocated. */
    PhysAddr take(std::size_t index);

    /** Drop every free frame in [base, end) from the free list. */
    void eraseFree(PhysAddr base, PhysAddr end);

    /** Set or clear @p frame's bit in allocated_. */
    void markAllocated(PhysAddr frame, bool allocated);

    PhysAddr base_;
    std::size_t size_;
    std::vector<PhysAddr> freeList_;
    /** Bit i set: frame base_ + i * PAGE_SIZE is allocated. */
    std::vector<std::uint64_t> allocated_;
    std::size_t allocatedCount_ = 0;
    std::size_t totalFrames_ = 0;
    RowPartition partition_;
    /** freeList_[0, lowWater_) still equals the free list of the image
     * last restored. Every change lowers it to the first index it
     * moves; an append moves none, since lowWater_ <= freeList_.size()
     * always holds. */
    std::size_t lowWater_ = 0;
};

} // namespace sentry::os

#endif // SENTRY_OS_PHYS_ALLOCATOR_HH
