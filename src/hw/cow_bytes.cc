#include "hw/cow_bytes.hh"

#include <algorithm>

#include "common/bytes.hh"
#include "common/logging.hh"

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
    private_.assign(nPages_, 0);
    stamp_.assign(nPages_, generation_);
}

void
CowBytes::readSlow(std::size_t offset, std::uint8_t *out,
                   std::size_t len) const
{
    while (len > 0) {
        const std::size_t inPage = offset % PAGE_SIZE;
        const std::size_t chunk = std::min(len, PAGE_SIZE - inPage);
        std::memcpy(out, readPtr_[offset / PAGE_SIZE] + inPage, chunk);
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
        std::memcpy(privatePage(offset / PAGE_SIZE) + inPage, in, chunk);
        offset += chunk;
        in += chunk;
        len -= chunk;
    }
}

std::span<std::uint8_t>
CowBytes::contiguous() const
{
    if (privatized_.size() != nPages_) {
        for (std::size_t page = 0; page < nPages_; ++page) {
            if (private_[page])
                continue;
            std::uint8_t *data = localPage(page);
            std::memcpy(data, readPtr_[page], PAGE_SIZE);
            readPtr_[page] = data;
            private_[page] = 1;
            privatized_.push_back(page);
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
    // non-zero byte; the seams around it still can.
    const bool skipZero = !allZero(needle);
    // An occurrence crossing the seam at offset s starts in
    // [s - reach, s), so the window of reach bytes on each side of the
    // seam holds all of them, for any needle length.
    const std::size_t reach = needle.size() - 1;
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
            containsBytes({readPtr_[page], len}, needle))
            return true;
        const std::size_t seam = page * PAGE_SIZE + len;
        if (reach == 0 || seam == size_)
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
                {readPtr_[page] + (off - begin), whole}, pattern);
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
        const std::size_t len = pageBytes(page);
        if (pageIsZero(page) || allZero({readPtr_[page], len}))
            continue;
        const std::uint8_t *bytes = readPtr_[page];
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

    // Private pages are copied out so this instance stays free to keep
    // mutating them; Shared pages are aliased (parent_ keeps the older
    // image alive); Zero pages stay nullptr.
    if (!privatized_.empty())
        image->owned_.reset(new std::uint8_t[privatized_.size() * PAGE_SIZE]);

    std::size_t slot = 0;
    bool sharesBase = false;
    for (std::size_t page = 0; page < nPages_; ++page) {
        if (private_[page]) {
            std::uint8_t *dst = image->owned_.get() + slot * PAGE_SIZE;
            std::memcpy(dst, readPtr_[page], PAGE_SIZE);
            image->pages_[page] = dst;
            ++slot;
        } else if (readPtr_[page] != zeroPage()) {
            image->pages_[page] = readPtr_[page];
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
        private_[page] = 0;
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
}

void
CowBytes::zeroAll()
{
    stamp_.assign(nPages_, ++generation_);
    for (std::size_t page = 0; page < nPages_; ++page) {
        if (private_[page]) {
            std::memset(localPage(page), 0, PAGE_SIZE);
        } else {
            readPtr_[page] = zeroPage();
        }
    }
    base_.reset();
}

} // namespace sentry::hw
