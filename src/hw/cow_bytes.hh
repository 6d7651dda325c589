/**
 * @file
 * Page-granular copy-on-write byte array.
 *
 * `CowBytes` backs the large simulated cell arrays (DRAM, iRAM) so that
 * a whole warmed device can be checkpointed and forked without copying
 * the full model. Pages are in one of three states:
 *
 *  - Zero:    never written; reads come from a shared all-zero page.
 *  - Shared:  read-only view into an immutable `CowImage` (a snapshot).
 *  - Private: this instance owns the page; writes landed here.
 *
 * `freeze()` publishes the current contents as an immutable, ref-counted
 * `CowImage` without disturbing this instance. `adopt()` rebinds this
 * instance to an image: every page becomes Shared (or Zero) and the
 * first write to a page privatizes it ("private-on-first-write"). The
 * set of Private pages is the fork's dirty bitmap; `privatePages()`
 * reports its population count.
 *
 * Re-adopting the image this instance already holds (the recycled
 * device re-forking its template) resets only the pages privatized
 * since the last `adopt()`, so its cost follows what the fork wrote,
 * not the array size. A different image, or any image after
 * `zeroAll()` (which drops the held one), rebinds every page.
 *
 * Write stamps: every store to a page records a new write generation
 * in that page's stamp — `write()`, `rewritePages()`, `adopt()`'s
 * rebinding and `zeroAll()` are the stores. `contains()` searches in
 * place, page by page plus the seams between neighbouring pages, and
 * visits only what was stamped after a caller-supplied generation: a
 * needle found absent at generation g can only have appeared since in
 * a page stamped after g. Generation 0 searches everything (the full
 * scan every incremental answer is checked against).
 *
 * Span-stability rule (the `raw()` contract for Dram/Iram): the
 * contiguous span returned by `contiguous()` materializes every page
 * into private storage and stays valid — and visible to reads through
 * this object — until the next `adopt()` (i.e. until the owning device
 * is forked again). `freeze()` and `zeroAll()` never invalidate it.
 * Code that holds a span across `adopt()` reads stale bytes; take a
 * fresh span instead. Writes through the span are not stamped, so only
 * callers that always search at generation 0 may write through it.
 */

#ifndef SENTRY_HW_COW_BYTES_HH
#define SENTRY_HW_COW_BYTES_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hh"

namespace sentry::hw
{

/**
 * Immutable page array published by CowBytes::freeze(). Safe to share
 * between threads: contents never change after publication, so many
 * workers can fork devices from one image concurrently.
 */
class CowImage
{
  public:
    /** @return logical size in bytes. */
    std::size_t size() const { return size_; }

    /** @return number of 4 KiB pages (last one may be partial). */
    std::size_t pageCount() const { return pages_.size(); }

    /** @return page data (PAGE_SIZE bytes), or nullptr for an all-zero
     * page. */
    const std::uint8_t *page(std::size_t index) const
    {
        return pages_[index];
    }

  private:
    friend class CowBytes;

    std::size_t size_ = 0;
    /** Per-page pointer; nullptr = zero page. Non-null entries point
     * either into owned_ or into a page of parent_. */
    std::vector<const std::uint8_t *> pages_;
    /** Storage for pages copied out of the freezing CowBytes. */
    std::unique_ptr<std::uint8_t[]> owned_;
    /** Keeps pages shared from an earlier image alive. */
    std::shared_ptr<const CowImage> parent_;
};

/** Copy-on-write byte array; see file comment for the page lifecycle. */
class CowBytes
{
  public:
    /** All pages start in the Zero state; no memory is touched, so
     * construction is O(size / PAGE_SIZE), not O(size). */
    explicit CowBytes(std::size_t size);

    CowBytes(const CowBytes &) = delete;
    CowBytes &operator=(const CowBytes &) = delete;

    std::size_t size() const { return size_; }
    std::size_t pageCount() const { return nPages_; }

    /** Copy @p len bytes at @p offset into @p buf. Caller checks
     * bounds. */
    void read(std::size_t offset, void *buf, std::size_t len) const
    {
        const std::size_t page = offset / PAGE_SIZE;
        const std::size_t inPage = offset % PAGE_SIZE;
        if (len <= PAGE_SIZE - inPage) {
            std::memcpy(buf, readPtr_[page] + inPage, len);
            return;
        }
        readSlow(offset, static_cast<std::uint8_t *>(buf), len);
    }

    /** Write @p len bytes at @p offset, privatizing and stamping the
     * touched pages. Caller checks bounds. */
    void write(std::size_t offset, const void *buf, std::size_t len)
    {
        const std::size_t page = offset / PAGE_SIZE;
        const std::size_t inPage = offset % PAGE_SIZE;
        if (len <= PAGE_SIZE - inPage) {
            std::memcpy(privatePage(page) + inPage, buf, len);
            return;
        }
        writeSlow(offset, static_cast<const std::uint8_t *>(buf), len);
    }

    /**
     * Stamped bulk write: privatize and stamp every page in order, and
     * hand its logical bytes to @p fn(offset, bytes). The span is only
     * valid during the call.
     */
    template <typename Fn>
    void
    rewritePages(Fn &&fn)
    {
        for (std::size_t page = 0; page < nPages_; ++page)
            fn(page * PAGE_SIZE,
               std::span<std::uint8_t>(privatePage(page), pageBytes(page)));
    }

    /**
     * Materialize every page into private storage and return the whole
     * array as one mutable span. See the span-stability rule in the
     * file comment. Logically const: contents are unchanged, only the
     * page states move to Private.
     */
    std::span<std::uint8_t> contiguous() const;

    /** @return the newest write generation; every page is stamped at
     * or below it. Construction is generation 1. */
    std::uint64_t generation() const { return generation_; }

    /** @return the generation of the last store to page @p index. */
    std::uint64_t pageStamp(std::size_t index) const
    {
        return stamp_[index];
    }

    /**
     * Search for @p needle in place: inside each page stamped after
     * @p since, and across each seam whose window touches such a page.
     * Zero pages are skipped when the needle has a non-zero byte.
     * @p since = 0 searches the whole array; the answer always equals
     * containsBytes() over the contents, provided the needle was absent
     * at generation @p since. An empty needle is never found.
     */
    bool contains(std::span<const std::uint8_t> needle,
                  std::uint64_t since = 0) const;

    /** countPattern() over the whole array (aligned, non-overlapping
     * strides from offset 0), walked page by page in place. */
    std::size_t countPattern(std::span<const std::uint8_t> pattern) const;

    /** @return the offset of the first non-zero byte, or size() when
     * every byte is zero. */
    std::size_t firstNonZero() const;

    /** Publish the current contents as an immutable image. Does not
     * change this instance's page states. */
    std::shared_ptr<const CowImage> freeze() const;

    /** Become a COW view of @p image (same size required): drop all
     * private pages, share the image's, and stamp every page rebound.
     * Invalidates prior spans. */
    void adopt(const std::shared_ptr<const CowImage> &image);

    /**
     * Reset contents to all-zero. Pages already Private are memset in
     * place (so existing spans keep reading zeros, matching what a
     * plain memset of the old storage did); Shared/Zero pages drop to
     * the Zero state for free. Stamps every page.
     */
    void zeroAll();

    /** @return number of Private pages (the fork's dirty bitmap
     * population). */
    std::size_t privatePages() const { return privatized_.size(); }

    /** @return true if page @p index has been privatized (dirty since
     * the last adopt()). */
    bool pageIsPrivate(std::size_t index) const
    {
        return private_[index] != 0;
    }

    /** The shared all-zero page backing Zero-state reads. */
    static const std::uint8_t *zeroPage();

  private:
    void readSlow(std::size_t offset, std::uint8_t *out,
                  std::size_t len) const;
    void writeSlow(std::size_t offset, const std::uint8_t *in,
                   std::size_t len);

    bool seamChanged(std::size_t lo, std::size_t hi, std::uint64_t since,
                     bool skip_zero) const;

    std::uint8_t *localPage(std::size_t page) const
    {
        return local_.get() + page * PAGE_SIZE;
    }

    /** @return the logical length of page @p page (the last one may be
     * partial). */
    std::size_t pageBytes(std::size_t page) const
    {
        return std::min(PAGE_SIZE, size_ - page * PAGE_SIZE);
    }

    bool pageIsZero(std::size_t page) const
    {
        return readPtr_[page] == zeroPage();
    }

    /** Copy-on-write: give page @p page its own storage, and stamp it
     * with a new generation (the caller is about to store to it). */
    std::uint8_t *privatePage(std::size_t page)
    {
        std::uint8_t *data = localPage(page);
        if (!private_[page]) {
            std::memcpy(data, readPtr_[page], PAGE_SIZE);
            readPtr_[page] = data;
            private_[page] = 1;
            privatized_.push_back(page);
        }
        stamp_[page] = ++generation_;
        return data;
    }

    std::size_t size_;
    std::size_t nPages_;
    /** Private storage, nPages_ * PAGE_SIZE bytes. Deliberately left
     * uninitialized: the host OS lazily backs it, so an instance that
     * never privatizes a page costs no physical memory. */
    std::unique_ptr<std::uint8_t[]> local_;
    /* Page state is mutable so that contiguous() can be const: reads
     * observe identical bytes before and after materialization. */
    mutable std::vector<const std::uint8_t *> readPtr_;
    mutable std::vector<std::uint8_t> private_;
    /** Indices of the Private pages, in privatization order. */
    mutable std::vector<std::size_t> privatized_;
    std::shared_ptr<const CowImage> base_;
    /** Per-page generation of the last store; see the file comment. */
    std::vector<std::uint64_t> stamp_;
    std::uint64_t generation_ = 1;
};

} // namespace sentry::hw

#endif // SENTRY_HW_COW_BYTES_HH
