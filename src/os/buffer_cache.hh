/**
 * @file
 * File-system buffer cache.
 *
 * The paper's dm-crypt benchmarks show the cache "masking" encryption
 * overhead: once a workload's blocks are cached, reads never touch the
 * crypto layer. Direct I/O bypasses the cache entirely, which is the
 * configuration that exposes the true crypto cost (Figure 9).
 *
 * Writes are write-through (they always reach the encrypting layer),
 * matching the shape of the paper's randrw results.
 */

#ifndef SENTRY_OS_BUFFER_CACHE_HH
#define SENTRY_OS_BUFFER_CACHE_HH

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/sim_clock.hh"
#include "os/block_device.hh"

namespace sentry::os
{

/** Hit/miss counters. */
struct BufferCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writes = 0;
};

/** LRU buffer cache over a BlockLayer. */
class BufferCache
{
  public:
    /**
     * @param clock          clock charged for cached copies
     * @param lower          backing (possibly encrypting) layer
     * @param capacity_bytes cache capacity
     * @param copy_bytes_per_sec rate of a cache-hit memcpy
     * @param op_overhead_seconds per-request syscall + file-system
     *        bookkeeping cost (30 us default); this is what bounds the
     *        no-crypto workloads in Figure 9
     */
    BufferCache(SimClock &clock, BlockLayer &lower,
                std::size_t capacity_bytes,
                double copy_bytes_per_sec = 2e9,
                double op_overhead_seconds = 30e-6);

    /**
     * Read a block. @p direct_io bypasses the cache (and does not
     * pollute it), exactly like O_DIRECT.
     */
    void read(std::uint64_t index, std::span<std::uint8_t> buf,
              bool direct_io);

    /** Write-through write. */
    void write(std::uint64_t index, std::span<const std::uint8_t> buf,
               bool direct_io);

    /** @return counters. */
    const BufferCacheStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        std::uint64_t index;
        std::vector<std::uint8_t> data;
    };

    void insert(std::uint64_t index, std::span<const std::uint8_t> buf);
    void chargeCopy();

    SimClock &clock_;
    BlockLayer &lower_;
    std::size_t capacityBlocks_;
    double copyBytesPerSec_;
    double opOverheadSeconds_;

    std::list<Entry> lru_; // front = most recent
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map_;
    BufferCacheStats stats_;
};

} // namespace sentry::os

#endif // SENTRY_OS_BUFFER_CACHE_HH
