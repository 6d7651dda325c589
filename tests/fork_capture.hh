/**
 * @file
 * Everything Device::forkFrom restores into a Soc and a Kernel,
 * captured so that a re-forked device can be compared with a fresh
 * fork of the same snapshot. Memories are read through the COW arrays,
 * so taking a capture privatizes no page.
 */

#ifndef SENTRY_TESTS_FORK_CAPTURE_HH
#define SENTRY_TESTS_FORK_CAPTURE_HH

#include <cstdint>
#include <vector>

#include "core/device.hh"

namespace sentry::test
{

/** Equal kernel state: processes (page tables, VMAs, flags), the
 * allocator's free list in order and its allocated frames, the run and
 * parked queues, and the counters. */
inline bool
sameKernel(const os::KernelSnapshot &a, const os::KernelSnapshot &b)
{
    return a.processes == b.processes && a.nextPid == b.nextPid &&
           *a.allocator == *b.allocator && a.queues == b.queues &&
           a.faultCount == b.faultCount &&
           a.freedDirtyFrames == b.freedDirtyFrames &&
           a.powerState == b.powerState && a.pin == b.pin &&
           a.badPinAttempts == b.badPinAttempts &&
           a.suspendedSeconds == b.suspendedSeconds &&
           a.wakeCount == b.wakeCount && a.kernelCycles == b.kernelCycles;
}

struct ForkCapture
{
    hw::L2Cache::ForkState l2;
    std::vector<std::uint8_t> dram;
    std::vector<std::uint8_t> iram;
    std::size_t dramDirtyPages = 0;
    std::size_t iramDirtyPages = 0;
    std::uint64_t now = 0;
    os::KernelSnapshot kernel;

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
               iramDirtyPages == other.iramDirtyPages && now == other.now &&
               sameKernel(kernel, other.kernel);
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
    capture.kernel = device.kernel().snapshot();
    return capture;
}

} // namespace sentry::test

#endif // SENTRY_TESTS_FORK_CAPTURE_HH
