#include "hw/cow_bytes.hh"

#include <algorithm>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "host/kernels.hh"

namespace sentry::hw
{

const std::uint8_t *
CowBytes::zeroPage()
{
    alignas(64) static const std::uint8_t zeros[PAGE_SIZE] = {};
    return zeros;
}

CowBytes::CowBytes(std::size_t size)
    : size_(size), nPages_((size + PAGE_SIZE - 1) / PAGE_SIZE)
{
    if (size == 0)
        panic("CowBytes: zero size");
    local_.reset(new std::uint8_t[nPages_ * PAGE_SIZE]);
    readPtr_.assign(nPages_, zeroPage());
    lastDeferred_.assign(nPages_, 0);
    stamp_.assign(nPages_, generation_);
}

std::uint8_t *
CowBytes::privatize(std::size_t page, bool whole) const
{
    std::uint8_t *data = localPage(page);
    if (pageIsDeferred(page)) {
        // Already listed as Private: compute the page unless the
        // caller is about to overwrite all of it.
        if (!whole)
            computeDeferred(page, data);
    } else {
        if (!whole)
            std::memcpy(data, readPtr_[page], PAGE_SIZE);
        privatized_.push_back(page);
    }
    readPtr_[page] = data;
    return data;
}

void
CowBytes::computeDeferred(std::size_t page, std::uint8_t *data) const
{
    // The entries link back from the newest; run them oldest first.
    std::uint32_t chain[MAX_DEFERRED_DECAYS];
    std::size_t count = 0;
    for (std::uint32_t entry = lastDeferred_[page]; entry != 0;
         entry = deferred_[entry - 1].previous)
        chain[count++] = entry;
    std::memset(data, 0, PAGE_SIZE);
    const host::BytesKernel &kernel = host::kernels().bytes;
    while (count > 0) {
        const DeferredDecay &decay = deferred_[chain[--count] - 1];
        kernel.decayPage(data, PAGE_SIZE, decay.state, decay.threshold,
                         decay.ground);
    }
}

void
CowBytes::deferDecay(std::size_t page, const Rng::State &state,
                     std::uint32_t threshold, std::uint8_t ground)
{
    if (pageBytes(page) != PAGE_SIZE ||
        !(pageIsZero(page) || pageIsDeferred(page)))
        panic("CowBytes::deferDecay: page %zu is not a full Zero or "
              "deferred page",
              page);
    std::uint32_t previous = 0;
    unsigned count = 1;
    if (pageIsZero(page)) {
        readPtr_[page] = nullptr;
        privatized_.push_back(page);
    } else {
        previous = lastDeferred_[page];
        count = deferred_[previous - 1].count + 1u;
        if (count > MAX_DEFERRED_DECAYS) {
            std::uint8_t *data = storePage(page, false);
            host::kernels().bytes.decayPage(data, PAGE_SIZE, state,
                                            threshold, ground);
            return;
        }
    }
    deferred_.push_back({state, threshold, ground,
                         static_cast<std::uint8_t>(count), previous});
    lastDeferred_[page] = static_cast<std::uint32_t>(deferred_.size());
    stamp_[page] = ++generation_;
}

void
CowBytes::readSlow(std::size_t offset, std::uint8_t *out,
                   std::size_t len) const
{
    while (len > 0) {
        const std::size_t inPage = offset % PAGE_SIZE;
        const std::size_t chunk = std::min(len, PAGE_SIZE - inPage);
        std::memcpy(out, pageData(offset / PAGE_SIZE) + inPage, chunk);
        offset += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
CowBytes::writeSlow(std::size_t offset, const std::uint8_t *in,
                    std::size_t len)
{
    while (len > 0) {
        const std::size_t inPage = offset % PAGE_SIZE;
        const std::size_t chunk = std::min(len, PAGE_SIZE - inPage);
        std::memcpy(storePage(offset / PAGE_SIZE, chunk == PAGE_SIZE) +
                        inPage,
                    in, chunk);
        offset += chunk;
        in += chunk;
        len -= chunk;
    }
}

void
CowBytes::fillPattern(std::span<const std::uint8_t> pattern)
{
    if (pattern.empty())
        panic("CowBytes::fillPattern: empty pattern");
    std::vector<std::uint8_t> phased(pattern.size());
    rewritePages([&](const PageRewrite &page) {
        // Rotate the pattern so the fill stays continuous across pages.
        const std::size_t phase = page.offset() % pattern.size();
        std::rotate_copy(pattern.begin(), pattern.begin() + phase,
                         pattern.end(), phased.begin());
        sentry::fillPattern(page.bytes(), phased);
    });
}

std::span<const std::uint8_t>
CowBytes::contiguous() const
{
    if (privatized_.size() != nPages_ || !deferred_.empty()) {
        for (std::size_t page = 0; page < nPages_; ++page) {
            if (readPtr_[page] != localPage(page))
                privatize(page, false);
        }
    }
    return {local_.get(), size_};
}

bool
CowBytes::seamChanged(std::size_t lo, std::size_t hi, std::uint64_t since,
                      bool skip_zero) const
{
    bool changed = false;
    bool mayHold = !skip_zero;
    for (std::size_t page = lo / PAGE_SIZE; page <= (hi - 1) / PAGE_SIZE;
         ++page) {
        changed = changed || stamp_[page] > since;
        mayHold = mayHold || !pageIsZero(page);
    }
    return changed && mayHold;
}

bool
CowBytes::contains(std::span<const std::uint8_t> needle,
                   std::uint64_t since) const
{
    if (needle.empty() || needle.size() > size_)
        return false;
    // A page that reads as all zeros cannot hold a needle with a
    // non-zero byte, nor a deferred page (0x00 and 0xFF only) one with
    // another byte; the seams around them still can.
    const auto ground = [](std::uint8_t byte) {
        return byte == 0x00 || byte == 0xff;
    };
    const bool skipZero = !allZero(needle);
    const bool skipDeferred = !std::ranges::all_of(needle, ground);
    // An occurrence crossing the seam at offset s starts in
    // [s - reach, s), so the window of reach bytes on each side of the
    // seam holds all of them, for any needle length. For a needle no
    // longer than a page, those windows lie inside the two pages, so
    // one crossing the seam after a deferred page starts in it and one
    // crossing the seam before a deferred page ends in it.
    const std::size_t reach = needle.size() - 1;
    const bool fits = needle.size() <= PAGE_SIZE;
    const bool skipAfterDeferred = fits && !ground(needle.front());
    const bool skipBeforeDeferred = fits && !ground(needle.back());
    std::vector<std::uint8_t> window;
    for (std::size_t page = 0; page < nPages_; ++page) {
        // An occurrence touching a changed page lies inside it or
        // crosses a seam next to it, so page p (its bytes and its right
        // seam) needs a look only when p or p + 1 changed.
        if (stamp_[page] <= since &&
            (page + 1 == nPages_ || stamp_[page + 1] <= since))
            continue;
        const std::size_t len = pageBytes(page);
        if (stamp_[page] > since && !(skipZero && pageIsZero(page)) &&
            !(skipDeferred && pageIsDeferred(page)) &&
            containsBytes({pageData(page), len}, needle))
            return true;
        const std::size_t seam = page * PAGE_SIZE + len;
        if (reach == 0 || seam == size_ ||
            (skipAfterDeferred && pageIsDeferred(page)) ||
            (skipBeforeDeferred && pageIsDeferred(page + 1)))
            continue;
        const std::size_t lo = seam - std::min(seam, reach);
        const std::size_t hi = std::min(size_, seam + reach);
        if (!seamChanged(lo, hi, since, skipZero))
            continue;
        window.resize(hi - lo);
        read(lo, window.data(), window.size());
        if (containsBytes(window, needle))
            return true;
    }
    return false;
}

std::size_t
CowBytes::countPattern(std::span<const std::uint8_t> pattern) const
{
    if (pattern.empty())
        panic("CowBytes::countPattern: empty pattern");
    const std::size_t len = pattern.size();
    const bool skipZero = !allZero(pattern);
    std::vector<std::uint8_t> stride(len);
    std::size_t hits = 0;
    std::size_t off = 0; // start of the next pattern-sized stride
    for (std::size_t page = 0; page < nPages_ && off + len <= size_;
         ++page) {
        const std::size_t begin = page * PAGE_SIZE;
        const std::size_t end = begin + pageBytes(page);
        if (off >= end)
            continue; // covered by a stride that started earlier
        const std::size_t whole = (end - off) / len * len;
        if (whole != 0 && !(skipZero && pageIsZero(page)))
            hits += sentry::countPattern(
                {pageData(page) + (off - begin), whole}, pattern);
        off += whole;
        // At most one stride crosses the seam at `end`.
        if (off < end && off + len <= size_) {
            read(off, stride.data(), len);
            hits += std::memcmp(stride.data(), pattern.data(), len) == 0;
            off += len;
        }
    }
    return hits;
}

std::size_t
CowBytes::firstNonZero() const
{
    for (std::size_t page = 0; page < nPages_; ++page) {
        if (pageIsZero(page))
            continue;
        const std::uint8_t *bytes = pageData(page);
        if (allZero({bytes, pageBytes(page)}))
            continue;
        std::size_t i = 0;
        while (bytes[i] == 0)
            ++i;
        return page * PAGE_SIZE + i;
    }
    return size_;
}

std::shared_ptr<const CowImage>
CowBytes::freeze() const
{
    auto image = std::make_shared<CowImage>();
    image->size_ = size_;
    image->pages_.resize(nPages_, nullptr);

    // Private pages (deferred ones computed) are copied out so this
    // instance stays free to keep mutating them; Shared pages are
    // aliased (parent_ keeps the older image alive); Zero pages stay
    // nullptr.
    if (!privatized_.empty())
        image->owned_.reset(new std::uint8_t[privatized_.size() * PAGE_SIZE]);

    std::size_t slot = 0;
    bool sharesBase = false;
    for (std::size_t page = 0; page < nPages_; ++page) {
        const std::uint8_t *src = pageData(page);
        if (src == localPage(page)) {
            std::uint8_t *dst = image->owned_.get() + slot * PAGE_SIZE;
            std::memcpy(dst, src, PAGE_SIZE);
            image->pages_[page] = dst;
            ++slot;
        } else if (src != zeroPage()) {
            image->pages_[page] = src;
            sharesBase = true;
        }
    }
    if (sharesBase)
        image->parent_ = base_;
    return image;
}

void
CowBytes::adopt(const std::shared_ptr<const CowImage> &image)
{
    if (image == nullptr)
        panic("CowBytes::adopt: null image");
    if (image->size() != size_)
        panic("CowBytes::adopt: size mismatch (%zu vs %zu)",
              image->size(), size_);
    const std::uint64_t stamp = ++generation_;
    const auto rebind = [this, stamp](std::size_t page) {
        const std::uint8_t *src = base_->page(page);
        readPtr_[page] = src != nullptr ? src : zeroPage();
        stamp_[page] = stamp;
    };
    if (image == base_) {
        // Every page not privatized since the last adopt still reads
        // from this image.
        for (std::size_t page : privatized_)
            rebind(page);
    } else {
        base_ = image;
        for (std::size_t page = 0; page < nPages_; ++page)
            rebind(page);
    }
    privatized_.clear();
    deferred_.clear();
}

void
CowBytes::zeroAll()
{
    stamp_.assign(nPages_, ++generation_);
    for (std::size_t page = 0; page < nPages_; ++page) {
        if (pageIsPrivate(page)) {
            // A deferred page drops its decays and stays Private.
            std::memset(localPage(page), 0, PAGE_SIZE);
            readPtr_[page] = localPage(page);
        } else {
            readPtr_[page] = zeroPage();
        }
    }
    deferred_.clear();
    base_.reset();
}

} // namespace sentry::hw
