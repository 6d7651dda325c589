/**
 * @file
 * Everything Device::forkFrom restores into a Soc, a Kernel and Sentry,
 * captured so that a re-forked device can be compared with a fresh fork
 * of the same snapshot: the Soc's SocState, the L2 and the allocator
 * (held by pointer in a snapshot, so captured by value here), the
 * memories' bytes and dirty pages, the kernel's processes, queues and
 * State, and Sentry's snapshot. Memories are read through the COW
 * arrays, and a Soc snapshot freezes them without privatizing a page.
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
    hw::L2Cache::ForkImage l2Image;
    std::uint32_t l2LockdownMask;
    std::uint32_t l2FlushWayMask;
    hw::L2Stats l2Stats;
    std::vector<std::uint8_t> dram;
    std::vector<std::uint8_t> iram;
    std::size_t dramDirtyPages;
    std::size_t iramDirtyPages;
    hw::SocState soc;
    std::vector<os::KernelSnapshot::ProcessImage> processes;
    os::PhysAllocator allocator;
    os::Scheduler::ForkState queues;
    os::Kernel::State kernel;
    core::SentrySnapshot sentry;

    bool operator==(const ForkCapture &) const = default;
};

inline ForkCapture
captureFork(core::Device &device)
{
    hw::Soc &soc = device.soc();
    const hw::SocSnapshot snap = soc.snapshot();
    std::vector<std::uint8_t> dram(soc.dram().size());
    soc.dram().busRead(0, dram.data(), dram.size());
    std::vector<std::uint8_t> iram(soc.iram().size());
    soc.iram().read(0, iram.data(), iram.size());
    os::KernelSnapshot kernel = device.kernel().snapshot();
    return ForkCapture{
        .l2Image = *snap.l2.image,
        .l2LockdownMask = snap.l2.lockdownMask,
        .l2FlushWayMask = snap.l2.flushWayMask,
        .l2Stats = snap.l2.stats,
        .dram = std::move(dram),
        .iram = std::move(iram),
        .dramDirtyPages = soc.dram().dirtyPages(),
        .iramDirtyPages = soc.iram().dirtyPages(),
        .soc = snap.state,
        .processes = std::move(kernel.processes),
        .allocator = *kernel.allocator,
        .queues = std::move(kernel.queues),
        .kernel = std::move(kernel.state),
        .sentry = device.sentry().snapshot(),
    };
}

} // namespace sentry::test

#endif // SENTRY_TESTS_FORK_CAPTURE_HH
