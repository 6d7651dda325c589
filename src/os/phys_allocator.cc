#include "os/phys_allocator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sentry::os
{

PhysAllocator::PhysAllocator(PhysAddr base, std::size_t size)
    : base_(base), size_(size)
{
    if (base % PAGE_SIZE != 0 || size % PAGE_SIZE != 0)
        fatal("PhysAllocator range must be page aligned");
    freeList_.reserve(size / PAGE_SIZE);
    // Push in reverse so allocation proceeds from low addresses up.
    for (PhysAddr frame = base + size; frame > base;)
        freeList_.push_back(frame -= PAGE_SIZE);
    totalFrames_ = freeList_.size();
    allocated_.assign((totalFrames_ + 63) / 64, 0);
}

void
PhysAllocator::reserveRange(PhysAddr base, std::size_t size)
{
    eraseFree(base, base + size);
    totalFrames_ = freeList_.size() + allocatedCount_;
}

bool
PhysAllocator::isAllocated(PhysAddr frame) const
{
    if (frame < base_ || frame - base_ >= size_ || frame % PAGE_SIZE != 0)
        return false;
    const std::size_t index = (frame - base_) / PAGE_SIZE;
    return ((allocated_[index / 64] >> (index % 64)) & 1) != 0;
}

void
PhysAllocator::markAllocated(PhysAddr frame, bool allocated)
{
    const std::size_t index = (frame - base_) / PAGE_SIZE;
    const std::uint64_t bit = std::uint64_t{1} << (index % 64);
    if (allocated) {
        allocated_[index / 64] |= bit;
        ++allocatedCount_;
    } else {
        allocated_[index / 64] &= ~bit;
        --allocatedCount_;
    }
}

PhysAddr
PhysAllocator::take(std::size_t index)
{
    const PhysAddr frame = freeList_[index];
    freeList_.erase(freeList_.begin() + static_cast<std::ptrdiff_t>(index));
    lowWater_ = std::min(lowWater_, index);
    markAllocated(frame, true);
    return frame;
}

void
PhysAllocator::eraseFree(PhysAddr base, PhysAddr end)
{
    const auto inRange = [&](PhysAddr frame) {
        return frame >= base && frame < end;
    };
    const auto first =
        std::find_if(freeList_.begin(), freeList_.end(), inRange);
    lowWater_ = std::min(
        lowWater_, static_cast<std::size_t>(first - freeList_.begin()));
    freeList_.erase(std::remove_if(first, freeList_.end(), inRange),
                    freeList_.end());
}

PhysAddr
PhysAllocator::allocFrame()
{
    if (freeList_.empty())
        fatal("out of physical memory (%zu frames allocated)",
              allocatedCount_);
    return take(freeList_.size() - 1);
}

std::size_t
PhysAllocator::rowInBank(PhysAddr frame) const
{
    const PhysAddr offset = frame - partition_.geomBase;
    return (offset / partition_.rowBytes) / partition_.banks;
}

bool
PhysAllocator::inVictimRows(PhysAddr frame) const
{
    if (!partition_.enabled())
        return false;
    return rowInBank(frame) < partition_.victimRowLimit;
}

bool
PhysAllocator::inAttackerRows(PhysAddr frame) const
{
    if (!partition_.enabled())
        return false;
    return rowInBank(frame) >=
           partition_.victimRowLimit + partition_.guardRows;
}

PhysAddr
PhysAllocator::tryAllocFrame(MemDomain domain)
{
    if (freeList_.empty())
        return 0;
    // Fast path: no partition, or a Default request whose next frame
    // already qualifies — identical behavior (and identical frame
    // order) to the plain allocFrame() stack pop.
    const std::size_t top = freeList_.size() - 1;
    if (!partition_.enabled() ||
        (domain == MemDomain::Default && inVictimRows(freeList_[top])))
        return take(top);

    // Victim/Default scan from the back (low addresses first, like the
    // stack pop); Attacker scans from the front, i.e. from the highest
    // addresses, keeping the two regions' allocation orders disjoint.
    if (domain != MemDomain::Attacker) {
        for (std::size_t i = freeList_.size(); i > 0; --i) {
            if (inVictimRows(freeList_[i - 1]))
                return take(i - 1);
        }
        // Default degrades gracefully so enabling the partition never
        // shrinks usable capacity; strict Victim does not.
        return domain == MemDomain::Default ? take(top) : 0;
    }
    for (std::size_t i = 0; i < freeList_.size(); ++i) {
        if (inAttackerRows(freeList_[i]))
            return take(i);
    }
    return 0;
}

PhysAddr
PhysAllocator::allocFrame(MemDomain domain)
{
    const PhysAddr frame = tryAllocFrame(domain);
    if (frame == 0)
        fatal("out of physical memory in domain %d (%zu frames "
              "allocated)",
              static_cast<int>(domain), allocatedCount_);
    return frame;
}

PhysAddr
PhysAllocator::allocContiguous(std::size_t frames)
{
    if (frames == 0)
        panic("allocContiguous of zero frames");

    std::vector<PhysAddr> sorted(freeList_);
    std::sort(sorted.begin(), sorted.end());
    std::size_t runStart = 0;
    for (std::size_t i = 1; i <= sorted.size(); ++i) {
        const bool contiguous =
            i < sorted.size() && sorted[i] == sorted[i - 1] + PAGE_SIZE;
        if (!contiguous) {
            if (i - runStart >= frames) {
                const PhysAddr base = sorted[runStart];
                const PhysAddr end = base + frames * PAGE_SIZE;
                eraseFree(base, end);
                for (PhysAddr frame = base; frame < end; frame += PAGE_SIZE)
                    markAllocated(frame, true);
                return base;
            }
            runStart = i;
        }
    }
    fatal("no contiguous run of %zu frames available", frames);
}

void
PhysAllocator::freeFrame(PhysAddr frame)
{
    if (!isAllocated(frame))
        panic("double free of frame 0x%llx",
              static_cast<unsigned long long>(frame));
    markAllocated(frame, false);
    freeList_.push_back(frame);
}

void
PhysAllocator::restore(const PhysAllocator &image, bool same_image)
{
    if (same_image) {
        // Entries below the mark still equal the image's.
        freeList_.resize(lowWater_);
        freeList_.insert(freeList_.end(),
                         image.freeList_.begin() +
                             static_cast<std::ptrdiff_t>(lowWater_),
                         image.freeList_.end());
        allocated_ = image.allocated_;
        allocatedCount_ = image.allocatedCount_;
        totalFrames_ = image.totalFrames_;
        partition_ = image.partition_;
    } else {
        *this = image;
    }
    lowWater_ = freeList_.size();
}

bool
PhysAllocator::operator==(const PhysAllocator &other) const
{
    return base_ == other.base_ && size_ == other.size_ &&
           freeList_ == other.freeList_ && allocated_ == other.allocated_ &&
           allocatedCount_ == other.allocatedCount_ &&
           totalFrames_ == other.totalFrames_ &&
           partition_ == other.partition_;
}

} // namespace sentry::os
