/**
 * @file
 * The locked-cache pager: Sentry's background-execution mode (paper
 * sections 2, 5; Figure 1).
 *
 * While the device is screen-locked, a background app's pages stay
 * encrypted in DRAM. The pager services young-bit faults:
 *
 *   page-in:  copy the encrypted page from its DRAM home into a free
 *             locked-cache frame, decrypt it in place with AES On SoC,
 *             repoint the PTE at the on-SoC copy and set young;
 *   eviction: when the locked frames are full, the same sequence runs
 *             in reverse on the LRU resident page — encrypt in place,
 *             copy back to the DRAM home, repoint the PTE, clear young.
 *
 * Cleartext therefore exists only inside locked cache ways; DRAM holds
 * ciphertext at all times.
 */

#ifndef SENTRY_CORE_LOCKED_CACHE_PAGER_HH
#define SENTRY_CORE_LOCKED_CACHE_PAGER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "core/onsoc_allocator.hh"
#include "crypto/aes_on_soc.hh"
#include "os/kernel.hh"

namespace sentry::core
{

/** Pager statistics. */
struct PagerStats
{
    std::uint64_t pageIns = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytesDecrypted = 0;
    std::uint64_t bytesEncrypted = 0;

    bool operator==(const PagerStats &) const = default;
};

/** Pages sensitive background processes through locked-cache frames. */
class LockedCachePager
{
  public:
    /**
     * @param kernel  the OS
     * @param engine  AES On SoC engine used for page crypto
     * @param iv_fn   per-page IV (must match Sentry's lock-time IVs)
     */
    LockedCachePager(
        os::Kernel &kernel, crypto::SimAesEngine &engine,
        std::function<crypto::Iv(const os::Process &, VirtAddr)> iv_fn);

    /** Contribute a locked-way region as pager frames. */
    void addFrames(const OnSocRegion &region);

    /** @return number of 4 KiB on-SoC frames (free + resident). */
    std::size_t totalFrames() const;

    /**
     * Service a fault on an encrypted page of a background process.
     * On return the PTE points at a decrypted on-SoC frame.
     */
    void pageIn(os::Process &process, VirtAddr va, os::Pte &pte);

    /**
     * Unlock-time drain: copy resident plaintext back to the DRAM homes
     * (the device is unlocked, DRAM plaintext is allowed again).
     */
    void drainOnUnlock();

    /** @return counters. */
    const PagerStats &stats() const { return stats_; }

    /** Pager state for snapshot/fork; residents are recorded by pid so
     * they can be re-threaded onto a forked kernel's processes. */
    struct ForkState
    {
        struct ResidentImage
        {
            int pid = 0;
            VirtAddr va = 0;
            PhysAddr frame = 0;

            bool operator==(const ResidentImage &) const = default;
        };
        std::vector<PhysAddr> freeFrames;
        std::vector<ResidentImage> residents;
        PagerStats stats;

        bool operator==(const ForkState &) const = default;
    };

    ForkState forkState() const;

    /** Restore, resolving pids against the (already forked) kernel;
     * fatal when a resident names an unknown pid. */
    void restoreForkState(const ForkState &fs);

  private:
    struct Resident
    {
        os::Process *process;
        VirtAddr va;
        PhysAddr frame;
    };

    void evictOne();

    os::Kernel &kernel_;
    crypto::SimAesEngine &engine_;
    std::function<crypto::Iv(const os::Process &, VirtAddr)> ivFn_;

    std::vector<PhysAddr> freeFrames_;
    std::deque<Resident> residents_; // front = oldest (FIFO eviction)
    PagerStats stats_;
};

} // namespace sentry::core

#endif // SENTRY_CORE_LOCKED_CACHE_PAGER_HH
