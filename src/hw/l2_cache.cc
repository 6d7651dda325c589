#include "hw/l2_cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "common/logging.hh"
#include "host/kernels.hh"
#include "hw/trustzone.hh"

namespace sentry::hw
{

L2Cache::L2Cache(SimClock &clock, Bus &bus, TrustZone &tz,
                 PhysAddr cacheable_base, std::size_t cacheable_size,
                 std::size_t size, unsigned ways, L2Timing timing)
    : clock_(clock), bus_(bus), tz_(tz), cacheableBase_(cacheable_base),
      cacheableSize_(cacheable_size), ways_(ways), timing_(timing)
{
    if (ways == 0 || ways > 32)
        fatal("L2 associativity must be 1..32 (got %u)", ways);
    if (size % (ways * CACHE_LINE_SIZE) != 0)
        fatal("L2 size must be a multiple of ways*line");
    sets_ = size / (ways * CACHE_LINE_SIZE);
    if ((sets_ & (sets_ - 1)) != 0)
        fatal("L2 set count must be a power of two (got %zu)", sets_);
    if (cacheable_size != 0 &&
        tagOf(cacheable_base + cacheable_size - 1) >
            std::numeric_limits<Tag>::max())
        fatal("L2 tags of the cacheable window end at 0x%llx, past the "
              "%zu-bit tag store",
              static_cast<unsigned long long>(
                  tagOf(cacheable_base + cacheable_size - 1)),
              8 * sizeof(Tag));
    allWays_ = ways == 32 ? ~0u : (1u << ways) - 1;

    tags_.assign(sets_ * ways_, 0);
    valid_.assign(sets_, 0);
    dirty_.assign(sets_, 0);
    data_.assign(sets_ * ways_ * CACHE_LINE_SIZE, 0);
    rr_.assign(sets_, 0);
    mru_.assign(sets_, 0);
    touched_.assign((sets_ + 63) / 64, 0);
}

bool
L2Cache::cacheable(PhysAddr addr) const
{
    return addr >= cacheableBase_ && addr < cacheableBase_ + cacheableSize_;
}

int
L2Cache::findWay(std::size_t set, std::uint64_t tag) const
{
    // MRU hint first: a tag can live in at most one way, so a hint hit
    // is the same answer the scan would give.
    const Tag *row = tags_.data() + lineIndex(set, 0);
    const std::uint32_t valid = valid_[set];
    const unsigned hint = mru_[set];
    if (((valid >> hint) & 1) != 0 && row[hint] == tag)
        return static_cast<int>(hint);
    for (std::uint32_t bits = valid; bits != 0; bits &= bits - 1) {
        const unsigned way = std::countr_zero(bits);
        if (row[way] == tag) {
            mru_[set] = static_cast<std::uint8_t>(way);
            return static_cast<int>(way);
        }
    }
    return -1;
}

int
L2Cache::pickVictim(std::size_t set)
{
    // Round-robin among allocatable (unlocked) ways; prefer invalid
    // lines, lowest way first.
    const std::uint32_t free = allWays_ & ~lockdownMask_ & ~valid_[set];
    if (free != 0)
        return std::countr_zero(free);
    for (unsigned probe = 0; probe < ways_; ++probe) {
        const unsigned way = (rr_[set] + probe) % ways_;
        if (lockdownMask_ & (1u << way))
            continue;
        rr_[set] = (way + 1) % ways_;
        return static_cast<int>(way);
    }
    return -1; // every way locked: caller falls back to uncached access
}

void
L2Cache::writebackLine(std::size_t set, unsigned way)
{
    const std::uint32_t bit = 1u << way;
    if ((dirty_[set] & bit) == 0)
        return;
    touchSet(set);
    // Fire before the bus write so a scheduled DMA burst races the
    // flush (reads DRAM while the line is still only in the cache).
    if (trace_ != nullptr && trace_->enabled(probe::TraceKind::CacheEvent)) {
        probe::CacheEvent event{way, (lockdownMask_ & bit) != 0,
                                lineAddr(set, way)};
        trace_->emit(event);
    }
    bus_.write(lineAddr(set, way), lineData(set, way), CACHE_LINE_SIZE,
               BusInitiator::CpuCache);
    clock_.advance(timing_.writebackCycles);
    dirty_[set] &= ~bit;
    ++stats_.writebacks;
}

void
L2Cache::access(PhysAddr addr, std::uint8_t *rbuf, const std::uint8_t *wbuf,
                std::size_t len)
{
    if (len == 0)
        return;
    const PhysAddr lineBase = alignDown(addr, CACHE_LINE_SIZE);
    if (addr + len > lineBase + CACHE_LINE_SIZE)
        panic("L2 access crosses a line boundary: 0x%llx (+%zu)",
              static_cast<unsigned long long>(addr), len);
    if (!cacheable(addr))
        panic("L2 access outside the cacheable window: 0x%llx",
              static_cast<unsigned long long>(addr));

    const std::size_t set = setOf(addr);
    const std::uint64_t tag = tagOf(addr);
    const std::size_t offsetInLine = addr - lineBase;

    int way = findWay(set, tag);
    if (way < 0 || wbuf != nullptr)
        touchSet(set); // a fill or a write changes the set
    if (way >= 0) {
        ++stats_.hits;
        clock_.advance(timing_.hitCycles);
    } else {
        ++stats_.misses;
        clock_.advance(timing_.hitCycles + timing_.missPenaltyCycles);
        way = pickVictim(set);
        if (way < 0) {
            // All ways locked: the transaction goes straight to DRAM.
            ++stats_.uncachedAccesses;
            if (rbuf != nullptr) {
                bus_.read(addr, rbuf, len, BusInitiator::CpuCache);
            } else {
                bus_.write(addr, wbuf, len, BusInitiator::CpuCache);
            }
            return;
        }
        // The victim is clean from here on: writebackLine cleans a dirty
        // one, and an invalid one is never dirty.
        writebackLine(set, static_cast<unsigned>(way));
        bus_.read(lineBase, lineData(set, static_cast<unsigned>(way)),
                  CACHE_LINE_SIZE, BusInitiator::CpuCache);
        tags_[lineIndex(set, static_cast<unsigned>(way))] =
            static_cast<Tag>(tag);
        valid_[set] |= 1u << way;
        mru_[set] = static_cast<std::uint8_t>(way);
        ++stats_.fills;
    }

    std::uint8_t *cached =
        lineData(set, static_cast<unsigned>(way)) + offsetInLine;
    if (rbuf != nullptr) {
        host::copyLine(rbuf, cached, len);
    } else {
        host::copyLine(cached, wbuf, len);
        dirty_[set] |= 1u << way;
    }
}

void
L2Cache::read(PhysAddr addr, std::uint8_t *buf, std::size_t len)
{
    access(addr, buf, nullptr, len);
}

void
L2Cache::write(PhysAddr addr, const std::uint8_t *buf, std::size_t len)
{
    access(addr, nullptr, buf, len);
}

bool
L2Cache::writeLockdownReg(std::uint32_t mask)
{
    if (!tz_.lockdownConfigAllowed())
        return false;
    lockdownMask_ = mask;
    return true;
}

void
L2Cache::flushAllMasked()
{
    for (std::size_t set = 0; set < sets_; ++set) {
        const std::uint32_t lines = valid_[set] & ~flushWayMask_;
        if (lines == 0)
            continue;
        touchSet(set);
        for (std::uint32_t bits = lines; bits != 0; bits &= bits - 1) {
            const unsigned way = std::countr_zero(bits);
            writebackLine(set, way);
            valid_[set] &= ~(1u << way);
        }
    }
}

void
L2Cache::cleanAllMasked()
{
    // writebackLine marks each set it changes.
    for (std::size_t set = 0; set < sets_; ++set) {
        for (std::uint32_t bits = dirty_[set] & ~flushWayMask_; bits != 0;
             bits &= bits - 1)
            writebackLine(set, std::countr_zero(bits));
    }
}

void
L2Cache::rawFlushAll()
{
    // The stock full flush ignores locks: every dirty line (locked or
    // not) is written back to DRAM and everything is invalidated. The
    // lockdown register is cleared — locked ways are gone.
    for (std::size_t set = 0; set < sets_; ++set) {
        if (valid_[set] == 0)
            continue;
        touchSet(set);
        for (std::uint32_t bits = valid_[set]; bits != 0; bits &= bits - 1) {
            const unsigned way = std::countr_zero(bits);
            writebackLine(set, way);
            valid_[set] &= ~(1u << way);
        }
    }
    lockdownMask_ = 0;
}

void
L2Cache::cleanRange(PhysAddr addr, std::size_t len)
{
    const PhysAddr start = alignDown(addr, CACHE_LINE_SIZE);
    for (PhysAddr a = start; a < addr + len; a += CACHE_LINE_SIZE) {
        const std::size_t set = setOf(a);
        const int way = findWay(set, tagOf(a));
        if (way < 0 || (flushWayMask_ & (1u << way)))
            continue;
        writebackLine(set, static_cast<unsigned>(way));
    }
}

void
L2Cache::invalidateRange(PhysAddr addr, std::size_t len)
{
    const PhysAddr start = alignDown(addr, CACHE_LINE_SIZE);
    for (PhysAddr a = start; a < addr + len; a += CACHE_LINE_SIZE) {
        const std::size_t set = setOf(a);
        const int way = findWay(set, tagOf(a));
        if (way < 0 || (flushWayMask_ & (1u << way)))
            continue;
        touchSet(set);
        valid_[set] &= ~(1u << way);
        dirty_[set] &= ~(1u << way);
    }
}

void
L2Cache::resetAndZero()
{
    // Every set changes: forget the restored image, so the next restore
    // copies everything.
    restored_.reset();
    std::fill(tags_.begin(), tags_.end(), 0);
    std::fill(valid_.begin(), valid_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    std::memset(data_.data(), 0, data_.size());
    lockdownMask_ = 0;
    flushWayMask_ = 0;
}

const std::uint8_t *
L2Cache::peek(PhysAddr addr, unsigned *way_out) const
{
    if (!cacheable(addr))
        return nullptr;
    const std::size_t set = setOf(addr);
    const int way = findWay(set, tagOf(addr));
    if (way < 0)
        return nullptr;
    if (way_out != nullptr)
        *way_out = static_cast<unsigned>(way);
    return lineData(set, static_cast<unsigned>(way)) +
           (addr % CACHE_LINE_SIZE);
}

bool
L2Cache::wayHasDirtyLines(unsigned way) const
{
    const std::uint32_t bit = 1u << way;
    return std::any_of(dirty_.begin(), dirty_.end(),
                       [bit](std::uint32_t dirty) {
                           return (dirty & bit) != 0;
                       });
}

L2Cache::ForkState
L2Cache::forkState() const
{
    return ForkState{std::make_shared<const ForkImage>(
                         ForkImage{tags_, valid_, dirty_, data_, rr_}),
                     lockdownMask_, flushWayMask_, stats_};
}

void
L2Cache::restoreForkState(const ForkState &fs)
{
    const ForkImage &image = *fs.image;
    if (image.tags.size() != tags_.size() ||
        image.valid.size() != valid_.size() ||
        image.dirty.size() != dirty_.size() ||
        image.data.size() != data_.size() || image.rr.size() != rr_.size())
        fatal("L2Cache::restoreForkState: geometry mismatch");
    if (fs.image == restored_) {
        // Same image: only the sets touched since can differ from it.
        const std::size_t setBytes = ways_ * CACHE_LINE_SIZE;
        for (std::size_t word = 0; word < touched_.size(); ++word) {
            for (std::uint64_t bits = touched_[word]; bits != 0;
                 bits &= bits - 1) {
                const std::size_t set = word * 64 + std::countr_zero(bits);
                std::copy_n(image.tags.begin() + lineIndex(set, 0), ways_,
                            tags_.begin() + lineIndex(set, 0));
                valid_[set] = image.valid[set];
                dirty_[set] = image.dirty[set];
                std::memcpy(lineData(set, 0),
                            image.data.data() + set * setBytes, setBytes);
                rr_[set] = image.rr[set];
            }
        }
    } else {
        std::copy(image.tags.begin(), image.tags.end(), tags_.begin());
        std::copy(image.valid.begin(), image.valid.end(), valid_.begin());
        std::copy(image.dirty.begin(), image.dirty.end(), dirty_.begin());
        std::copy(image.data.begin(), image.data.end(), data_.begin());
        std::copy(image.rr.begin(), image.rr.end(), rr_.begin());
        restored_ = fs.image;
    }
    std::fill(touched_.begin(), touched_.end(), 0);
    lockdownMask_ = fs.lockdownMask;
    flushWayMask_ = fs.flushWayMask;
    stats_ = fs.stats;
}

} // namespace sentry::hw
