/**
 * @file
 * Many-forks stress: one immutable DeviceSnapshot fanned out to many
 * devices across many threads at once (the fleet spawn pattern). Runs
 * under `ctest -L fleet`, so the TSAN leg of bench/run_benches.sh
 * checks that concurrent forks really do share the COW image without
 * data races, and that every fork computes an identical result. The
 * recycling test re-forks each thread's target many times, so the
 * restores that copy back only what the previous round changed run
 * concurrently against the one shared template.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "apps/app_profile.hh"
#include "apps/synthetic_app.hh"
#include "common/bytes.hh"
#include "common/logging.hh"
#include "core/device.hh"
#include "crypto/sha256.hh"
#include "fork_capture.hh"

using namespace sentry;
using namespace sentry::core;

namespace
{

const auto SECRET = fromHex("f0f0d1d15ca1ab1ef0f0d1d15ca1ab1e");

hw::PlatformConfig
config()
{
    return hw::PlatformConfig::nexus4(64 * MiB);
}

crypto::Sha256Digest
deviceDigest(Device &device)
{
    crypto::Sha256 hasher;
    hasher.update(device.soc().dramRaw());
    hasher.update(device.soc().iramRaw());
    const std::uint64_t now = device.soc().clock().now();
    hasher.update({reinterpret_cast<const std::uint8_t *>(&now),
                   sizeof now});
    return hasher.finish();
}

/** Round @p round's writes: a heap written through the cache, whose
 * size and fill vary by round so each round dirties different L2 sets,
 * plus a DMA-style write straight into one DRAM page. */
void
scribble(Device &device, unsigned round)
{
    os::Kernel &kernel = device.kernel();
    os::Process &process = kernel.createProcess("app");
    const std::size_t bytes = (1 + round % 4) * PAGE_SIZE;
    const os::Vma &heap =
        kernel.addVma(process, "heap", os::VmaType::Heap, bytes);
    const std::vector<std::uint8_t> fill(bytes,
                                         static_cast<std::uint8_t>(round));
    kernel.writeVirt(process, heap.base, fill.data(), fill.size());
    kernel.touchRange(process, heap.base, bytes);
    hw::Dram &dram = device.soc().dram();
    const std::size_t page = (round * 37) % (dram.size() / PAGE_SIZE);
    dram.busWrite(page * PAGE_SIZE + round, fill.data(), 64);
}

} // namespace

TEST(ForkStress, ManyThreadsForkOneSnapshotIdentically)
{
    setQuiet(true);

    // Template: app populated and screen-locked, then checkpointed.
    Device origin(config());
    apps::SyntheticApp app(origin.kernel(),
                           apps::AppProfile::byName("Contacts"));
    app.populate(SECRET);
    origin.sentry().markSensitive(app.process());
    origin.kernel().lockScreen();
    const auto snap = origin.snapshot();

    constexpr unsigned THREADS = 8;
    constexpr unsigned FORKS_PER_THREAD = 4;

    std::vector<crypto::Sha256Digest> digests(THREADS *
                                              FORKS_PER_THREAD);
    std::vector<std::thread> workers;
    workers.reserve(THREADS);
    for (unsigned t = 0; t < THREADS; ++t) {
        workers.emplace_back([&, t] {
            // One target device per thread, re-forked repeatedly: the
            // fleet's boot-once spawn loop in miniature.
            Device target(config());
            for (unsigned i = 0; i < FORKS_PER_THREAD; ++i) {
                target.forkFrom(*snap);
                os::Process *process =
                    target.kernel().processes().front().get();
                apps::SyntheticApp forked(target.kernel(), *process);
                target.kernel().unlockScreen("0000");
                forked.resume();
                digests[t * FORKS_PER_THREAD + i] =
                    deviceDigest(target);
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();

    for (std::size_t i = 1; i < digests.size(); ++i)
        ASSERT_EQ(digests[i], digests[0]) << "fork " << i;
}

TEST(ForkStress, RecycledTargetsMatchAFreshForkEveryRound)
{
    setQuiet(true);
    const auto platform = hw::PlatformConfig::tegra3(4 * MiB);

    // Template: a 1 MiB heap written through the cache, so the L2 the
    // re-forks restore holds valid dirty lines in every set.
    Device origin(platform);
    origin.sentry().registerCryptoProviders();
    os::Process &warm = origin.kernel().createProcess("warm");
    const os::Vma &heap =
        origin.kernel().addVma(warm, "heap", os::VmaType::Heap, 1 * MiB);
    const std::vector<std::uint8_t> fill(heap.size, 0x3c);
    origin.kernel().writeVirt(warm, heap.base, fill.data(), fill.size());
    const auto snap = origin.snapshot();
    Device fresh(platform);
    fresh.forkFrom(*snap);
    const test::ForkCapture want = test::captureFork(fresh);

    constexpr unsigned THREADS = 4;
    constexpr unsigned ROUNDS = 50;
    std::vector<unsigned> mismatches(THREADS, 0);
    std::vector<std::thread> workers;
    workers.reserve(THREADS);
    for (unsigned t = 0; t < THREADS; ++t) {
        workers.emplace_back([&, t] {
            Device target(platform);
            for (unsigned round = 0; round < ROUNDS; ++round) {
                target.forkFrom(*snap);
                if (test::captureFork(target) != want)
                    ++mismatches[t];
                scribble(target, t * ROUNDS + round);
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();

    for (unsigned t = 0; t < THREADS; ++t)
        EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

TEST(ForkStress, SnapshotOutlivesItsSourceDevice)
{
    setQuiet(true);

    std::shared_ptr<const DeviceSnapshot> snap;
    {
        Device origin(config());
        apps::SyntheticApp app(origin.kernel(),
                               apps::AppProfile::byName("Contacts"));
        app.populate(SECRET);
        origin.sentry().markSensitive(app.process());
        origin.kernel().lockScreen();
        snap = origin.snapshot();
    } // origin destroyed; the snapshot must be self-contained

    Device fork(config());
    fork.forkFrom(*snap);
    os::Process *process = fork.kernel().processes().front().get();
    apps::SyntheticApp app(fork.kernel(), *process);
    fork.kernel().unlockScreen("0000");
    app.resume();

    std::vector<std::uint8_t> back(SECRET.size());
    fork.kernel().readVirt(app.process(), app.heapBase() + 64,
                           back.data(), SECRET.size());
    EXPECT_EQ(back, SECRET);
}
