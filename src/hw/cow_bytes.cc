#include "hw/cow_bytes.hh"

#include <algorithm>

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
    const auto rebind = [this](std::size_t page) {
        const std::uint8_t *src = base_->page(page);
        readPtr_[page] = src != nullptr ? src : zeroPage();
        private_[page] = 0;
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
