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
 * A Private page may be *deferred*: a full Zero page that a power loss
 * decays toward ground 0xFF (RemanenceModel::decay) keeps the
 * generator state, threshold and ground of that decay instead of its
 * bytes, and each later power loss appends its own entry (up to
 * eight; the next one computes the page and decays it at once). Its
 * bytes are zeros run through those decays in order, so they are only
 * ever 0x00 or 0xFF. The page is computed (host::BytesKernel::decayPage)
 * when something reads it: read(), a write that covers part of it,
 * contiguous(), freeze(), countPattern(), firstNonZero(), and
 * contains() unless the needle rules the page out. A whole-page
 * write, adopt() and zeroAll() drop the entries without computing
 * them. A deferred page counts as Private everywhere else: it is
 * stamped, listed for the re-adopt and in privatePages().
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
 * in that page's stamp — `write()`, the pages whose bytes a
 * `rewritePages()` callback takes or defers (`fillPattern()` takes
 * them all; the remanence decay leaves a Zero page it would not
 * change), `adopt()`'s rebinding and `zeroAll()` are the stores, and
 * there is no other way to change the contents. Computing a deferred
 * page is not a store: its contents changed when it was stamped.
 * `contains()` searches in place, page by page plus the seams between
 * neighbouring pages, and visits only what was stamped after a
 * caller-supplied generation: a needle found absent at generation g
 * can only have appeared since in a page stamped after g. Generation
 * 0 searches everything (the full scan every incremental answer is
 * checked against).
 *
 * Span-stability rule (the `raw()` contract for Dram/Iram): the
 * read-only span returned by `contiguous()` materializes (and
 * computes) every page into private storage and stays valid — and
 * follows later stores through this object — until the next
 * `adopt()` (i.e. until the owning device is forked again). `freeze()`
 * and `zeroAll()` never invalidate it. Code that holds a span across
 * `adopt()` reads stale bytes; take a fresh span instead.
 */

#ifndef SENTRY_HW_COW_BYTES_HH
#define SENTRY_HW_COW_BYTES_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hh"
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
            std::memcpy(buf, pageData(page) + inPage, len);
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
            std::memcpy(storePage(page, len == PAGE_SIZE) + inPage, buf, len);
            return;
        }
        writeSlow(offset, static_cast<const std::uint8_t *>(buf), len);
    }

    /** One page offered to a rewritePages() callback. */
    class PageRewrite
    {
      public:
        /** @return the page's offset in the array. */
        std::size_t offset() const { return page_ * PAGE_SIZE; }

        /** @return the page's length (the last one may be partial). */
        std::size_t size() const { return cells_.pageBytes(page_); }

        /** @return true while the page is Zero (reads the shared zero
         * page). */
        bool isZero() const { return cells_.pageIsZero(page_); }

        /** @return true while the page is deferred (see the file
         * comment). */
        bool isDeferred() const { return cells_.pageIsDeferred(page_); }

        /** Privatize and stamp the page, and return its bytes to store
         * into (a deferred page is computed first). The span is only
         * valid during the callback. */
        std::span<std::uint8_t> bytes() const
        {
            return {cells_.storePage(page_, false), size()};
        }

        /**
         * Stamp this full Zero or deferred page and append one decay to
         * it instead of running it: host::BytesKernel::decayPage with
         * @p state, @p threshold and @p ground, run when something
         * reads the page. The page becomes (or stays) deferred, unless
         * it already holds MAX_DEFERRED_DECAYS decays: then it is
         * computed and this one runs at once.
         */
        void deferDecay(const Rng::State &state, std::uint32_t threshold,
                        std::uint8_t ground) const
        {
            cells_.deferDecay(page_, state, threshold, ground);
        }

      private:
        friend class CowBytes;
        PageRewrite(CowBytes &cells, std::size_t page)
            : cells_(cells), page_(page)
        {}

        CowBytes &cells_;
        std::size_t page_;
    };

    /**
     * Stamped bulk write: hand every page, in order, to
     * @p fn(const PageRewrite &). A page is privatized and stamped only
     * when @p fn asks for its bytes; a page @p fn leaves alone keeps its
     * state and its stamp.
     */
    template <typename Fn>
    void
    rewritePages(Fn &&fn)
    {
        for (std::size_t page = 0; page < nPages_; ++page)
            fn(PageRewrite(*this, page));
    }

    /** Fill the whole array with repetitions of @p pattern, continuous
     * across pages, through rewritePages(). */
    void fillPattern(std::span<const std::uint8_t> pattern);

    /**
     * Materialize every page into private storage and return the whole
     * array as one read-only span. See the span-stability rule in the
     * file comment. Logically const: contents are unchanged, only the
     * page states move to Private.
     */
    std::span<const std::uint8_t> contiguous() const;

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
     * Zero pages are skipped when the needle has a non-zero byte, and
     * deferred pages (which hold only 0x00 and 0xFF) when it has a byte
     * outside those two. For a needle no longer than a page, a seam
     * after a deferred page is skipped when the needle's first byte is
     * outside them, and a seam before one when its last byte is; any
     * other deferred page the search needs is computed. @p since = 0
     * searches the whole array; the answer always equals
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
     * the last adopt()); a deferred page is. */
    bool pageIsPrivate(std::size_t index) const
    {
        return readPtr_[index] == localPage(index) || pageIsDeferred(index);
    }

    /** @return true if page @p index is deferred: Private, with power
     * losses recorded that have not been computed yet. */
    bool pageIsDeferred(std::size_t index) const
    {
        return readPtr_[index] == nullptr;
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

    /** @return page @p page's bytes, computing a deferred page first. */
    const std::uint8_t *pageData(std::size_t page) const
    {
        const std::uint8_t *data = readPtr_[page];
        if (data == nullptr) [[unlikely]]
            data = privatize(page, false);
        return data;
    }

    /** Copy-on-write: give page @p page its own storage, and stamp it
     * with a new generation (the caller is about to store to it). When
     * the caller stores a @p whole page, its old bytes are not copied
     * or computed. */
    std::uint8_t *storePage(std::size_t page, bool whole)
    {
        std::uint8_t *data = localPage(page);
        if (readPtr_[page] != data) [[unlikely]]
            privatize(page, whole);
        stamp_[page] = ++generation_;
        return data;
    }

    std::uint8_t *privatize(std::size_t page, bool whole) const;
    void computeDeferred(std::size_t page, std::uint8_t *data) const;
    void deferDecay(std::size_t page, const Rng::State &state,
                    std::uint32_t threshold, std::uint8_t ground);

    /** Decays one page may record; the next power loss computes the
     * page and decays it at once, so the list stays bounded however
     * many power losses a device goes through. */
    static constexpr unsigned MAX_DEFERRED_DECAYS = 8;

    /** One power loss recorded on a deferred page (see deferDecay()). */
    struct DeferredDecay
    {
        Rng::State state;
        std::uint32_t threshold;
        std::uint8_t ground;
        /** The page's entries up to and including this one. */
        std::uint8_t count;
        /** The page's earlier entry, as an index into deferred_ plus
         * one; 0 for its first. */
        std::uint32_t previous;
    };

    std::size_t size_;
    std::size_t nPages_;
    /** Private storage, nPages_ * PAGE_SIZE bytes. Deliberately left
     * uninitialized: the host OS lazily backs it, so an instance that
     * never privatizes a page costs no physical memory. */
    std::unique_ptr<std::uint8_t[]> local_;
    /* Page state is mutable so that reads and contiguous() can be
     * const: they observe identical bytes before and after a page is
     * materialized or computed. A page is Zero when its pointer is
     * zeroPage(), Private when it is its local page, deferred when it
     * is null, and Shared otherwise. */
    mutable std::vector<const std::uint8_t *> readPtr_;
    /** Indices of the Private pages, in privatization order. */
    mutable std::vector<std::size_t> privatized_;
    /** Every deferred page's decays, appended in power-loss order. Only
     * a Zero page starts a list, so between two adopt() or zeroAll()
     * calls, which clear it, a page adds at most MAX_DEFERRED_DECAYS
     * entries; those of pages computed or dropped since stay until
     * then. */
    std::vector<DeferredDecay> deferred_;
    /** Per page: its newest entry in deferred_ plus one; read only
     * while the page is deferred. */
    std::vector<std::uint32_t> lastDeferred_;
    std::shared_ptr<const CowImage> base_;
    /** Per-page generation of the last store; see the file comment. */
    std::vector<std::uint64_t> stamp_;
    std::uint64_t generation_ = 1;
};

} // namespace sentry::hw

#endif // SENTRY_HW_COW_BYTES_HH
