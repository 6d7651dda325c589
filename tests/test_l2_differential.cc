/**
 * @file
 * Differential test of the L2 controller against a reference model of
 * the line-array design it replaced: one {tag, valid, dirty} record per
 * line, and whole-cache operations that walk every line of every set.
 *
 * Seeded random operation sequences run on both: reads and writes
 * (also while every way is locked), lockdown and flush-mask changes,
 * lockdown glitches, range cleans and invalidates, masked clean and
 * flush, the raw flush, the firmware reset, and fork captures restored
 * into the controller that took them (the delta path) or into one that
 * last restored another capture (the full path). After every operation
 * the two must agree on the bus and cache trace events (with the clock
 * at each), stats, clock, registers, line state, payloads, replacement
 * pointers, peek results and wayHasDirtyLines answers. The geometries
 * run 4 to 32 ways; 32 covers bit 31 and the all-ways masks.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/sim_clock.hh"
#include "common/trace_engine.hh"
#include "hw/bus.hh"
#include "hw/dram.hh"
#include "hw/l2_cache.hh"
#include "hw/trustzone.hh"

using namespace sentry;
using namespace sentry::hw;

namespace
{

/** The line-array controller, reduced to what the differential needs:
 * TrustZone gating and the MRU hint are left out (neither changes a
 * result). */
class ReferenceL2
{
  public:
    struct Line
    {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
    };

    struct Capture
    {
        std::vector<Line> lines;
        std::vector<std::uint8_t> data;
        std::vector<std::uint32_t> rr;
        std::uint32_t lockdownMask = 0;
        std::uint32_t flushWayMask = 0;
        L2Stats stats;
    };

    ReferenceL2(SimClock &clock, Bus &bus, std::size_t cache_size,
                unsigned ways)
        : clock_(clock), bus_(bus), ways_(ways),
          sets_(cache_size / (ways * CACHE_LINE_SIZE)),
          lines_(sets_ * ways), data_(sets_ * ways * CACHE_LINE_SIZE, 0),
          rr_(sets_, 0)
    {}

    void setTraceEngine(probe::TraceEngine *trace) { trace_ = trace; }

    void
    read(PhysAddr addr, std::uint8_t *buf, std::size_t len)
    {
        access(addr, buf, nullptr, len);
    }

    void
    write(PhysAddr addr, const std::uint8_t *buf, std::size_t len)
    {
        access(addr, nullptr, buf, len);
    }

    void writeLockdownReg(std::uint32_t mask) { lockdownMask_ = mask; }
    void glitchLockdownBits(std::uint32_t clear) { lockdownMask_ &= ~clear; }
    std::uint32_t lockdownReg() const { return lockdownMask_; }
    void setFlushWayMask(std::uint32_t mask) { flushWayMask_ = mask; }
    std::uint32_t flushWayMask() const { return flushWayMask_; }
    const L2Stats &stats() const { return stats_; }

    void
    flushAllMasked()
    {
        for (std::size_t set = 0; set < sets_; ++set) {
            for (unsigned way = 0; way < ways_; ++way) {
                if (flushWayMask_ & (1u << way))
                    continue;
                Line &line = lines_[set * ways_ + way];
                if (!line.valid)
                    continue;
                writebackLine(set, way);
                line.valid = false;
            }
        }
    }

    void
    cleanAllMasked()
    {
        for (std::size_t set = 0; set < sets_; ++set) {
            for (unsigned way = 0; way < ways_; ++way) {
                if (flushWayMask_ & (1u << way))
                    continue;
                writebackLine(set, way);
            }
        }
    }

    void
    rawFlushAll()
    {
        for (std::size_t set = 0; set < sets_; ++set) {
            for (unsigned way = 0; way < ways_; ++way) {
                Line &line = lines_[set * ways_ + way];
                if (!line.valid)
                    continue;
                writebackLine(set, way);
                line.valid = false;
            }
        }
        lockdownMask_ = 0;
    }

    void
    cleanRange(PhysAddr addr, std::size_t len)
    {
        const PhysAddr start = alignDown(addr, CACHE_LINE_SIZE);
        for (PhysAddr a = start; a < addr + len; a += CACHE_LINE_SIZE) {
            const int way = findWay(setOf(a), tagOf(a));
            if (way < 0 || (flushWayMask_ & (1u << way)))
                continue;
            writebackLine(setOf(a), static_cast<unsigned>(way));
        }
    }

    void
    invalidateRange(PhysAddr addr, std::size_t len)
    {
        const PhysAddr start = alignDown(addr, CACHE_LINE_SIZE);
        for (PhysAddr a = start; a < addr + len; a += CACHE_LINE_SIZE) {
            const int way = findWay(setOf(a), tagOf(a));
            if (way < 0 || (flushWayMask_ & (1u << way)))
                continue;
            Line &line = lines_[setOf(a) * ways_ + way];
            line.valid = false;
            line.dirty = false;
        }
    }

    void
    resetAndZero()
    {
        for (Line &line : lines_)
            line = Line{};
        std::fill(data_.begin(), data_.end(), 0);
        lockdownMask_ = 0;
        flushWayMask_ = 0;
    }

    const std::uint8_t *
    peek(PhysAddr addr, unsigned *way_out) const
    {
        const int way = findWay(setOf(addr), tagOf(addr));
        if (way < 0)
            return nullptr;
        *way_out = static_cast<unsigned>(way);
        return lineData(setOf(addr), static_cast<unsigned>(way)) +
               addr % CACHE_LINE_SIZE;
    }

    bool
    wayHasDirtyLines(unsigned way) const
    {
        for (std::size_t set = 0; set < sets_; ++set) {
            const Line &line = lines_[set * ways_ + way];
            if (line.valid && line.dirty)
                return true;
        }
        return false;
    }

    Capture
    capture() const
    {
        return {lines_, data_, rr_, lockdownMask_, flushWayMask_, stats_};
    }

    void
    restore(const Capture &capture)
    {
        lines_ = capture.lines;
        data_ = capture.data;
        rr_ = capture.rr;
        lockdownMask_ = capture.lockdownMask;
        flushWayMask_ = capture.flushWayMask;
        stats_ = capture.stats;
    }

  private:
    std::size_t setOf(PhysAddr addr) const
    {
        return (addr / CACHE_LINE_SIZE) % sets_;
    }

    std::uint64_t tagOf(PhysAddr addr) const
    {
        return addr / CACHE_LINE_SIZE / sets_;
    }

    std::uint8_t *lineData(std::size_t set, unsigned way)
    {
        return data_.data() + (set * ways_ + way) * CACHE_LINE_SIZE;
    }

    const std::uint8_t *lineData(std::size_t set, unsigned way) const
    {
        return data_.data() + (set * ways_ + way) * CACHE_LINE_SIZE;
    }

    int
    findWay(std::size_t set, std::uint64_t tag) const
    {
        for (unsigned way = 0; way < ways_; ++way) {
            const Line &line = lines_[set * ways_ + way];
            if (line.valid && line.tag == tag)
                return static_cast<int>(way);
        }
        return -1;
    }

    int
    pickVictim(std::size_t set)
    {
        for (unsigned way = 0; way < ways_; ++way) {
            if (lockdownMask_ & (1u << way))
                continue;
            if (!lines_[set * ways_ + way].valid)
                return static_cast<int>(way);
        }
        for (unsigned probe = 0; probe < ways_; ++probe) {
            const unsigned way = (rr_[set] + probe) % ways_;
            if (lockdownMask_ & (1u << way))
                continue;
            rr_[set] = (way + 1) % ways_;
            return static_cast<int>(way);
        }
        return -1;
    }

    void
    writebackLine(std::size_t set, unsigned way)
    {
        Line &line = lines_[set * ways_ + way];
        if (!line.valid || !line.dirty)
            return;
        const PhysAddr addr = (line.tag * sets_ + set) * CACHE_LINE_SIZE;
        if (trace_ != nullptr &&
            trace_->enabled(probe::TraceKind::CacheEvent)) {
            probe::CacheEvent event{way, (lockdownMask_ & (1u << way)) != 0,
                                    addr};
            trace_->emit(event);
        }
        bus_.write(addr, lineData(set, way), CACHE_LINE_SIZE,
                   BusInitiator::CpuCache);
        clock_.advance(L2Timing{}.writebackCycles);
        line.dirty = false;
        ++stats_.writebacks;
    }

    void
    access(PhysAddr addr, std::uint8_t *rbuf, const std::uint8_t *wbuf,
           std::size_t len)
    {
        const L2Timing timing;
        const std::size_t set = setOf(addr);
        int way = findWay(set, tagOf(addr));
        if (way >= 0) {
            ++stats_.hits;
            clock_.advance(timing.hitCycles);
        } else {
            ++stats_.misses;
            clock_.advance(timing.hitCycles + timing.missPenaltyCycles);
            way = pickVictim(set);
            if (way < 0) {
                ++stats_.uncachedAccesses;
                if (rbuf != nullptr)
                    bus_.read(addr, rbuf, len, BusInitiator::CpuCache);
                else
                    bus_.write(addr, wbuf, len, BusInitiator::CpuCache);
                return;
            }
            writebackLine(set, static_cast<unsigned>(way));
            Line &line = lines_[set * ways_ + way];
            bus_.read(alignDown(addr, CACHE_LINE_SIZE),
                      lineData(set, static_cast<unsigned>(way)),
                      CACHE_LINE_SIZE, BusInitiator::CpuCache);
            line.tag = tagOf(addr);
            line.valid = true;
            line.dirty = false;
            ++stats_.fills;
        }
        std::uint8_t *cached = lineData(set, static_cast<unsigned>(way)) +
                               addr % CACHE_LINE_SIZE;
        if (rbuf != nullptr) {
            std::memcpy(rbuf, cached, len);
        } else {
            std::memcpy(cached, wbuf, len);
            lines_[set * ways_ + way].dirty = true;
        }
    }

    SimClock &clock_;
    Bus &bus_;
    unsigned ways_;
    std::size_t sets_;
    std::vector<Line> lines_;
    std::vector<std::uint8_t> data_;
    std::vector<std::uint32_t> rr_;
    std::uint32_t lockdownMask_ = 0;
    std::uint32_t flushWayMask_ = 0;
    L2Stats stats_;
    probe::TraceEngine *trace_ = nullptr;
};

/** One bus transfer or cache writeback as a subscriber saw it. */
struct Event
{
    probe::TraceKind kind;
    std::uint64_t now;
    PhysAddr addr;
    std::uint32_t size = 0;
    bool isWrite = false;
    unsigned way = 0;
    bool wayLocked = false;
    std::vector<std::uint8_t> payload;

    bool operator==(const Event &) const = default;
};

class Recorder : public probe::Subscriber
{
  public:
    explicit Recorder(const SimClock &clock) : clock_(clock) {}

    void
    onBusTransfer(probe::BusTransfer &event) override
    {
        events.push_back({probe::TraceKind::BusTransfer, clock_.now(),
                          event.addr, event.size, event.isWrite, 0, false,
                          std::vector<std::uint8_t>(
                              event.data, event.data + event.size)});
    }

    void
    onCacheEvent(probe::CacheEvent &event) override
    {
        events.push_back({probe::TraceKind::CacheEvent, clock_.now(),
                          event.addr, 0, false, event.way, event.wayLocked,
                          {}});
    }

    std::vector<Event> events;

  private:
    const SimClock &clock_;
};

constexpr std::size_t SETS = 16;

/** Clock, bus, DRAM and a recording trace engine for one controller. */
struct Machine
{
    explicit Machine(std::size_t dram_size)
        : clock(1e9), dram(dram_size), recorder(clock)
    {
        bus.attach(&dram, DRAM_BASE, dram.size(), "dram");
        bus.setTraceEngine(&trace);
        trace.setClock(&clock);
        trace.subscribe(&recorder,
                        probe::maskOf(probe::TraceKind::BusTransfer) |
                            probe::maskOf(probe::TraceKind::CacheEvent));
    }

    SimClock clock;
    Bus bus;
    Dram dram;
    probe::TraceEngine trace;
    Recorder recorder;
};

class L2DifferentialTest : public testing::TestWithParam<unsigned>
{
  protected:
    L2DifferentialTest()
        : ways(GetParam()), allWays(ways == 32 ? ~0u : (1u << ways) - 1),
          hotLines(4 * SETS * ways), real(hotLines * CACHE_LINE_SIZE),
          ref(hotLines * CACHE_LINE_SIZE), tz(/*secure=*/true, 1),
          l2(real.clock, real.bus, tz, DRAM_BASE, real.dram.size(),
             SETS * ways * CACHE_LINE_SIZE, ways),
          model(ref.clock, ref.bus, SETS * ways * CACHE_LINE_SIZE, ways)
    {
        l2.setTraceEngine(&real.trace);
        model.setTraceEngine(&ref.trace);
    }

    /** A register value: none, all, all bits (past the ways too), one
     * way, or a random subset. */
    std::uint32_t
    randomMask(Rng &rng) const
    {
        switch (rng.below(5)) {
        case 0:
            return 0;
        case 1:
            return allWays;
        case 2:
            return ~0u;
        case 3:
            return 1u << rng.below(ways);
        default:
            return static_cast<std::uint32_t>(rng.next64()) & allWays;
        }
    }

    PhysAddr
    randomLine(Rng &rng) const
    {
        return DRAM_BASE + rng.below(hotLines) * CACHE_LINE_SIZE;
    }

    /** @return "" when both controllers agree on everything observable
     * and on their captured line state, else the first difference. */
    std::string
    difference(Rng &rng)
    {
        std::ostringstream out;
        if (real.recorder.events != ref.recorder.events)
            out << "trace events differ (" << real.recorder.events.size()
                << " vs " << ref.recorder.events.size() << "); ";
        real.recorder.events.clear();
        ref.recorder.events.clear();
        if (!(l2.stats() == model.stats()))
            out << "stats differ; ";
        if (real.clock.now() != ref.clock.now())
            out << "clock " << real.clock.now() << " vs " << ref.clock.now()
                << "; ";
        if (l2.lockdownReg() != model.lockdownReg() ||
            l2.flushWayMask() != model.flushWayMask())
            out << "registers differ; ";
        for (unsigned way = 0; way < ways; ++way) {
            if (l2.wayHasDirtyLines(way) != model.wayHasDirtyLines(way))
                out << "wayHasDirtyLines(" << way << ") differs; ";
        }
        for (int i = 0; i < 8; ++i) {
            const PhysAddr addr = randomLine(rng) + rng.below(CACHE_LINE_SIZE);
            unsigned realWay = ways, refWay = ways;
            const std::uint8_t *a = l2.peek(addr, &realWay);
            const std::uint8_t *b = model.peek(addr, &refWay);
            if ((a == nullptr) != (b == nullptr) || realWay != refWay ||
                (a != nullptr && *a != *b))
                out << "peek(0x" << std::hex << addr << std::dec
                    << ") differs; ";
        }

        const L2Cache::ForkState state = l2.forkState();
        const L2Cache::ForkImage &image = *state.image;
        const ReferenceL2::Capture capture = model.capture();
        for (std::size_t i = 0; i < capture.lines.size(); ++i) {
            const std::size_t set = i / ways;
            const unsigned way = i % ways;
            const ReferenceL2::Line &line = capture.lines[i];
            if (image.tags[i] != line.tag ||
                ((image.valid[set] >> way) & 1) != line.valid ||
                ((image.dirty[set] >> way) & 1) != line.dirty) {
                out << "line state of set " << set << " way " << way
                    << " differs; ";
                break;
            }
        }
        if (image.data != capture.data)
            out << "payloads differ; ";
        if (image.rr != capture.rr)
            out << "round-robin pointers differ; ";
        return out.str();
    }

    const unsigned ways;
    const std::uint32_t allWays;
    const std::size_t hotLines;
    Machine real;
    Machine ref;
    TrustZone tz;
    L2Cache l2;
    ReferenceL2 model;
};

} // namespace

TEST_P(L2DifferentialTest, RandomSequencesMatchTheLineArrayReference)
{
    struct Slot
    {
        L2Cache::ForkState real;
        ReferenceL2::Capture ref;
    };
    std::array<std::optional<Slot>, 2> slots;
    int lastRestored = -1;
    unsigned lockedHits = 0, uncached = 0, deltaRestores = 0,
             fullRestores = 0, partialFlushes = 0;

    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed * 1000 + ways);
        for (int op = 0; op < 3000; ++op) {
            const std::uint64_t pick = rng.below(100);
            if (pick < 55) {
                const PhysAddr addr =
                    randomLine(rng) + rng.below(CACHE_LINE_SIZE);
                const std::size_t len =
                    1 + rng.below(CACHE_LINE_SIZE - addr % CACHE_LINE_SIZE);
                unsigned way = 0;
                const bool resident = model.peek(addr, &way) != nullptr;
                if ((model.lockdownReg() & allWays) == allWays) {
                    lockedHits += resident;
                    uncached += !resident;
                }
                if (pick < 30) {
                    std::uint8_t a[CACHE_LINE_SIZE], b[CACHE_LINE_SIZE];
                    l2.read(addr, a, len);
                    model.read(addr, b, len);
                    ASSERT_EQ(0, std::memcmp(a, b, len)) << "op " << op;
                } else {
                    std::uint8_t bytes[CACHE_LINE_SIZE];
                    for (std::size_t i = 0; i < len; ++i)
                        bytes[i] = static_cast<std::uint8_t>(rng.next64());
                    l2.write(addr, bytes, len);
                    model.write(addr, bytes, len);
                }
            } else if (pick < 60) {
                const std::uint32_t mask = randomMask(rng);
                SecureWorldGuard guard(tz);
                ASSERT_TRUE(l2.writeLockdownReg(mask));
                model.writeLockdownReg(mask);
            } else if (pick < 63) {
                const std::uint32_t clear = randomMask(rng);
                l2.glitchLockdownBits(clear);
                model.glitchLockdownBits(clear);
            } else if (pick < 68) {
                const std::uint32_t mask = randomMask(rng);
                l2.setFlushWayMask(mask);
                model.setFlushWayMask(mask);
            } else if (pick < 74) {
                const PhysAddr addr =
                    randomLine(rng) + rng.below(CACHE_LINE_SIZE);
                const std::size_t len = std::min<std::size_t>(
                    1 + rng.below(4 * CACHE_LINE_SIZE),
                    DRAM_BASE + real.dram.size() - addr);
                if (pick < 71) {
                    l2.cleanRange(addr, len);
                    model.cleanRange(addr, len);
                } else {
                    l2.invalidateRange(addr, len);
                    model.invalidateRange(addr, len);
                }
            } else if (pick < 78) {
                l2.cleanAllMasked();
                model.cleanAllMasked();
            } else if (pick < 81) {
                const L2Cache::ForkState before = l2.forkState();
                l2.flushAllMasked();
                model.flushAllMasked();
                // Count flushes that left some set with unmasked lines
                // untouched while invalidating another's.
                const std::vector<std::uint32_t> &valid =
                    before.image->valid;
                std::size_t changed = 0;
                for (const std::uint32_t v : valid)
                    changed += (v & ~model.flushWayMask()) != 0;
                partialFlushes += changed > 0 && changed < valid.size();
            } else if (pick < 83) {
                l2.rawFlushAll();
                model.rawFlushAll();
            } else if (pick < 84) {
                l2.resetAndZero();
                model.resetAndZero();
            } else if (pick < 90) {
                const std::size_t slot = rng.below(slots.size());
                slots[slot] = Slot{l2.forkState(), model.capture()};
            } else {
                const std::size_t slot = rng.below(slots.size());
                if (!slots[slot])
                    continue;
                l2.restoreForkState(slots[slot]->real);
                model.restore(slots[slot]->ref);
                ++(static_cast<int>(slot) == lastRestored ? deltaRestores
                                                         : fullRestores);
                lastRestored = static_cast<int>(slot);
            }
            const std::string diff = difference(rng);
            ASSERT_EQ(diff, "") << "seed " << seed << ", op " << op
                                << " (pick " << pick << ")";
        }
    }
    // The sequences reached the paths they are meant to cover.
    EXPECT_GT(lockedHits, 0u);
    EXPECT_GT(uncached, 0u);
    EXPECT_GT(deltaRestores, 10u);
    EXPECT_GT(fullRestores, 10u);
    EXPECT_GT(partialFlushes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ways, L2DifferentialTest,
                         testing::Values(4u, 8u, 16u, 32u),
                         [](const testing::TestParamInfo<unsigned> &info) {
                             return std::to_string(info.param) + "Ways";
                         });

TEST(L2CacheDeath, TagsPastTheTagStoreAreFatal)
{
    // 16 sets of 8 ways: tags are address / 512, so a cacheable window
    // of 2^41 bytes from 0 ends at tag 2^32 - 1, the last a 32-bit tag
    // holds, and one more set's worth of lines reaches tag 2^32.
    SimClock clock(1e9);
    Bus bus;
    TrustZone tz(/*secure=*/true, 1);
    const std::size_t cacheSize = SETS * 8 * CACHE_LINE_SIZE;
    EXPECT_EXIT(L2Cache(clock, bus, tz, 0,
                        (std::size_t{1} << 41) + SETS * CACHE_LINE_SIZE,
                        cacheSize, 8),
                testing::ExitedWithCode(1), "tag");
    L2Cache fits(clock, bus, tz, 0, std::size_t{1} << 40, cacheSize, 8);
    EXPECT_EQ(fits.ways(), 8u);
}
