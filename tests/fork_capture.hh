/**
 * @file
 * Everything Device::forkFrom restores into a Soc, captured so that a
 * re-forked device can be compared with a fresh fork of the same
 * snapshot. Memories are read through the COW arrays, so taking a
 * capture privatizes no page.
 */

#ifndef SENTRY_TESTS_FORK_CAPTURE_HH
#define SENTRY_TESTS_FORK_CAPTURE_HH

#include <cstdint>
#include <vector>

#include "core/device.hh"

namespace sentry::test
{

struct ForkCapture
{
    hw::L2Cache::ForkState l2;
    std::vector<std::uint8_t> dram;
    std::vector<std::uint8_t> iram;
    std::size_t dramDirtyPages = 0;
    std::size_t iramDirtyPages = 0;
    std::uint64_t now = 0;

    bool
    operator==(const ForkCapture &other) const
    {
        const hw::L2Cache::ForkImage &a = *l2.image;
        const hw::L2Cache::ForkImage &b = *other.l2.image;
        return a.tags == b.tags && a.valid == b.valid &&
               a.dirty == b.dirty && a.data == b.data && a.rr == b.rr &&
               l2.mru == other.l2.mru &&
               l2.lockdownMask == other.l2.lockdownMask &&
               l2.flushWayMask == other.l2.flushWayMask &&
               l2.stats == other.l2.stats && dram == other.dram &&
               iram == other.iram && dramDirtyPages == other.dramDirtyPages &&
               iramDirtyPages == other.iramDirtyPages && now == other.now;
    }
};

inline ForkCapture
captureFork(core::Device &device)
{
    hw::Soc &soc = device.soc();
    ForkCapture capture;
    capture.l2 = soc.l2().forkState();
    capture.dram.resize(soc.dram().size());
    soc.dram().busRead(0, capture.dram.data(), capture.dram.size());
    capture.iram.resize(soc.iram().size());
    soc.iram().read(0, capture.iram.data(), capture.iram.size());
    capture.dramDirtyPages = soc.dram().dirtyPages();
    capture.iramDirtyPages = soc.iram().dirtyPages();
    capture.now = soc.clock().now();
    return capture;
}

} // namespace sentry::test

#endif // SENTRY_TESTS_FORK_CAPTURE_HH
