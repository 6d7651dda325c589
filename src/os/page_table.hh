/**
 * @file
 * Per-process page table.
 *
 * The ARM "young" (accessed) bit is the mechanism both Sentry paths
 * hinge on (paper sections 5 and 7): clearing it on a PTE forces a trap
 * on the next access, which is where decrypt-on-demand and the
 * locked-cache pager hook in.
 */

#ifndef SENTRY_OS_PAGE_TABLE_HH
#define SENTRY_OS_PAGE_TABLE_HH

#include <cstdint>
#include <functional>
#include <map>

#include "common/types.hh"

namespace sentry::os
{

/** One page table entry. */
struct Pte
{
    PhysAddr frame = 0;
    bool present = false;
    bool writable = true;
    /** ARM accessed bit; clear => the next access traps. */
    bool young = true;
    /** Sentry: the frame currently holds ciphertext. */
    bool encrypted = false;
    /** Sentry background mode: page is resident in a locked-cache frame. */
    bool onSoc = false;
    /** Background mode: the page's DRAM home while resident on-SoC. */
    PhysAddr dramHome = 0;

    bool operator==(const Pte &) const = default;
};

/** Sparse page table keyed by page-aligned virtual address. */
class PageTable
{
  public:
    /** Map @p va (page aligned) to @p frame. */
    Pte &map(VirtAddr va, PhysAddr frame);

    /** Remove a mapping; @return true if it existed. */
    bool unmap(VirtAddr va);

    /** @return the PTE for the page containing @p va, or nullptr. */
    Pte *find(VirtAddr va);
    const Pte *find(VirtAddr va) const;

    /** Iterate over all entries in VA order. */
    void forEach(const std::function<void(VirtAddr, Pte &)> &fn);

    /** @return number of mapped pages. */
    std::size_t size() const { return entries_.size(); }

    /** @return page-aligned base of the page containing @p va. */
    static VirtAddr pageOf(VirtAddr va) { return alignDown(va, PAGE_SIZE); }

    bool operator==(const PageTable &) const = default;

  private:
    std::map<VirtAddr, Pte> entries_;
};

} // namespace sentry::os

#endif // SENTRY_OS_PAGE_TABLE_HH
