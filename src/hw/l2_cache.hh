/**
 * @file
 * PL310-style shared L2 cache with lockdown-by-way.
 *
 * Models exactly the behaviours the paper's mechanism depends on
 * (validated against the real controller in paper section 4.2):
 *
 *   - allocation can be restricted to a subset of ways via the lockdown
 *     register; locked ways still *hit* for reads and writes, but are
 *     never chosen as eviction victims, so dirty data in a locked way
 *     never reaches DRAM;
 *   - a raw full-cache flush (the stock hardware operation) cleans and
 *     invalidates locked ways too — i.e. "flushing the entire cache does
 *     unlock all locked ways" and leaks their contents to DRAM. The OS
 *     change from section 4.5 is modelled by the flush-way mask: masked
 *     flush operations skip the masked ways;
 *   - DMA bypasses the cache entirely (coherence is software-managed on
 *     these SoCs), so cache contents are invisible to DMA attacks;
 *   - the lockdown register is only writable from the TrustZone secure
 *     world, and boot firmware resets and zeroes the array.
 */

#ifndef SENTRY_HW_L2_CACHE_HH
#define SENTRY_HW_L2_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_clock.hh"
#include "common/types.hh"
#include "hw/bus.hh"

namespace sentry::hw
{

class TrustZone;

/** Cache performance and traffic counters. */
struct L2Stats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t uncachedAccesses = 0;

    bool operator==(const L2Stats &) const = default;
};

/** Timing parameters charged to the SimClock per operation. */
struct L2Timing
{
    Cycles hitCycles = 8;
    Cycles missPenaltyCycles = 60; //!< DRAM line fill on top of the hit
    Cycles writebackCycles = 30;
};

/** The shared L2 cache controller. */
class L2Cache
{
  public:
    /**
     * @param clock      simulated clock to charge
     * @param bus        backing memory bus (DRAM side)
     * @param tz         TrustZone gate for the lockdown register
     * @param cacheable_base  start of the cacheable (DRAM) window
     * @param cacheable_size  size of the cacheable window
     * @param size       total capacity in bytes (1 MiB on Tegra 3)
     * @param ways       associativity (8 on Tegra 3)
     * @param timing     per-operation cycle costs
     */
    L2Cache(SimClock &clock, Bus &bus, TrustZone &tz, PhysAddr cacheable_base,
            std::size_t cacheable_size, std::size_t size, unsigned ways,
            L2Timing timing = {});

    /** @return true if @p addr falls in the cacheable window. */
    bool cacheable(PhysAddr addr) const;

    /**
     * CPU read through the cache. [addr, addr+len) must not cross a
     * cache-line boundary.
     */
    void read(PhysAddr addr, std::uint8_t *buf, std::size_t len);

    /** CPU write through the cache (write-back, write-allocate). */
    void write(PhysAddr addr, const std::uint8_t *buf, std::size_t len);

    /**
     * Program the lockdown register: bit i set means way i is locked
     * (excluded from allocation and eviction).
     *
     * @return false when the caller is not in the TrustZone secure world
     *         — the co-processor access is simply ignored, as on the
     *         locked-firmware Nexus 4.
     */
    bool writeLockdownReg(std::uint32_t mask);

    /** @return current lockdown register value. */
    std::uint32_t lockdownReg() const { return lockdownMask_; }

    /**
     * Fault-model backdoor: clear @p clear_mask's bits of the lockdown
     * register as a hardware upset would — NOT gated by TrustZone,
     * because a particle strike or voltage glitch does not ask the
     * secure monitor for permission. Only the fault injector calls this.
     * @return the new register value.
     */
    std::uint32_t glitchLockdownBits(std::uint32_t clear_mask)
    {
        lockdownMask_ &= ~clear_mask;
        return lockdownMask_;
    }

    /**
     * OS-maintained flush-way mask: bit i set means flush operations
     * skip way i. This models the paper's Linux cache-flush change; the
     * register itself is not security-gated (it is an OS convention).
     */
    void setFlushWayMask(std::uint32_t mask) { flushWayMask_ = mask; }

    /** @return current flush-way mask. */
    std::uint32_t flushWayMask() const { return flushWayMask_; }

    /**
     * Clean (write back) and invalidate all ways *except* those in the
     * flush-way mask — the patched-OS flush path.
     *
     * The whole-cache operations visit only the lines they act on (the
     * valid, or for a clean the dirty, lines of the ways they cover),
     * set by set in ascending order and lowest way first within a set.
     */
    void flushAllMasked();

    /** Clean (write back) dirty lines in unmasked ways; keep them valid. */
    void cleanAllMasked();

    /**
     * The stock hardware full flush: cleans and invalidates every way,
     * including locked ones, and clears the lockdown register. This is
     * the dangerous operation the paper discovered; Sentry's OS change
     * exists to make sure it is never executed while ways are locked.
     */
    void rawFlushAll();

    /** Clean (write back) any cached lines overlapping [addr, addr+len),
     *  honouring the flush-way mask. Used before DMA-out. */
    void cleanRange(PhysAddr addr, std::size_t len);

    /** Invalidate (discard) lines overlapping the range, honouring the
     *  flush-way mask. Used after DMA-in. */
    void invalidateRange(PhysAddr addr, std::size_t len);

    /**
     * Boot-firmware reset: invalidate everything without writeback, zero
     * the data array, clear lockdown and the flush mask.
     */
    void resetAndZero();

    /** @return total capacity in bytes. */
    std::size_t size() const { return ways_ * waySizeBytes(); }

    /** @return bytes per way. */
    std::size_t waySizeBytes() const { return sets_ * CACHE_LINE_SIZE; }

    /** @return associativity. */
    unsigned ways() const { return ways_; }

    /** @return number of sets. */
    std::size_t numSets() const { return sets_; }

    /** @return the cycle costs this cache was configured with (used by
     * timing side-channel attacks to calibrate hit/miss thresholds). */
    const L2Timing &timing() const { return timing_; }

    /** @return performance counters. */
    const L2Stats &stats() const { return stats_; }

    /** Zero the performance counters. */
    void clearStats() { stats_ = L2Stats{}; }

    /**
     * Simulation-level lookup: if @p addr is cached, return a pointer to
     * its byte inside the line store and (optionally) the way it lives
     * in. Not charged; used by tests and attack analysis.
     */
    const std::uint8_t *peek(PhysAddr addr, unsigned *way_out = nullptr) const;

    /** @return true if any line of way @p way is valid and dirty. */
    bool wayHasDirtyLines(unsigned way) const;

    /** Wire (or with nullptr unwire) the owning Soc's trace engine. */
    void setTraceEngine(probe::TraceEngine *trace) { trace_ = trace; }

    /** A line's tag: its address above the set index. The constructor
     * checks that every tag of the cacheable window fits. */
    using Tag = std::uint32_t;

    /** The per-set arrays of a capture: tag rows, valid and dirty way
     * masks, payloads and round-robin pointers (~1.2 MiB for the 1 MiB
     * Tegra 3 L2). */
    struct ForkImage
    {
        std::vector<Tag> tags;
        std::vector<std::uint32_t> valid;
        std::vector<std::uint32_t> dirty;
        std::vector<std::uint8_t> data;
        std::vector<std::uint32_t> rr;

        bool operator==(const ForkImage &) const = default;
    };

    /** Complete simulated controller state for snapshot/fork. The
     * per-set MRU hints are host lookup state, not part of it: a
     * restore keeps the hints the controller has. */
    struct ForkState
    {
        /** Immutable once captured, so any number of forks share it. */
        std::shared_ptr<const ForkImage> image;
        std::uint32_t lockdownMask = 0;
        std::uint32_t flushWayMask = 0;
        L2Stats stats;
    };

    /** Capture tag store, payloads, replacement and mask state. */
    ForkState forkState() const;

    /**
     * Overwrite this controller's state in place (geometry must match;
     * fatal otherwise).
     *
     * The controller keeps a reference to the image it restores. A
     * later restore of that same image copies back only the sets
     * touched since (a fill, write, writeback or invalidate marks its
     * set before changing it, and so do the flushes for each set whose
     * lines they invalidate); a different image, or one restored after
     * the firmware reset, is copied back whole. The scalars are always
     * copied whole.
     */
    void restoreForkState(const ForkState &fs);

  private:
    std::size_t lineIndex(std::size_t set, unsigned way) const
    {
        return set * ways_ + way;
    }

    std::uint8_t *lineData(std::size_t set, unsigned way)
    {
        return data_.data() + lineIndex(set, way) * CACHE_LINE_SIZE;
    }

    const std::uint8_t *lineData(std::size_t set, unsigned way) const
    {
        return data_.data() + lineIndex(set, way) * CACHE_LINE_SIZE;
    }

    std::size_t setOf(PhysAddr addr) const
    {
        return (addr / CACHE_LINE_SIZE) % sets_;
    }

    std::uint64_t tagOf(PhysAddr addr) const
    {
        return addr / CACHE_LINE_SIZE / sets_;
    }

    PhysAddr lineAddr(std::size_t set, unsigned way) const
    {
        return (PhysAddr{tags_[lineIndex(set, way)]} * sets_ + set) *
               CACHE_LINE_SIZE;
    }

    /** @return hit way index or -1. */
    int findWay(std::size_t set, std::uint64_t tag) const;

    /** Pick an allocatable victim way in @p set, or -1 if all locked. */
    int pickVictim(std::size_t set);

    void writebackLine(std::size_t set, unsigned way);

    /** Mark @p set as differing from the restored image. */
    void touchSet(std::size_t set)
    {
        touched_[set / 64] |= std::uint64_t{1} << (set % 64);
    }

    /** Common read/write path. */
    void access(PhysAddr addr, std::uint8_t *rbuf, const std::uint8_t *wbuf,
                std::size_t len);

    SimClock &clock_;
    Bus &bus_;
    TrustZone &tz_;
    PhysAddr cacheableBase_;
    std::size_t cacheableSize_;
    std::size_t sets_;
    unsigned ways_;
    L2Timing timing_;

    std::uint32_t allWays_; // bit w set for every way w < ways_

    // The line state. Bit w of valid_[s] / dirty_[s] is way w of set s;
    // a dirty line is valid. Set s's tags are the row
    // tags_[s * ways_ ..], and its payloads the same rows of data_.
    std::vector<Tag> tags_;
    std::vector<std::uint32_t> valid_;
    std::vector<std::uint32_t> dirty_;
    std::vector<std::uint8_t> data_;
    std::vector<std::uint32_t> rr_; // per-set round-robin pointer
    // Per-set most-recently-hit way: checked before the valid-way scan
    // so the pinned-AES-state access pattern (same handful of lines,
    // millions of times) short-circuits in one compare. Pure lookup
    // acceleration — never changes which way findWay() reports — so a
    // fork leaves it alone: a stale hint only costs the scan.
    mutable std::vector<std::uint8_t> mru_;
    std::uint32_t lockdownMask_ = 0;
    std::uint32_t flushWayMask_ = 0;
    probe::TraceEngine *trace_ = nullptr;

    L2Stats stats_;

    /** The image last restored; held, so identity is a pointer
     * compare that cannot be fooled by a freed and reused address. */
    std::shared_ptr<const ForkImage> restored_;
    /** Bit s set: set s may differ from restored_. */
    std::vector<std::uint64_t> touched_;
};

} // namespace sentry::hw

#endif // SENTRY_HW_L2_CACHE_HH
