#include "os/buffer_cache.hh"

#include <cstring>

#include "common/logging.hh"

namespace sentry::os
{

BufferCache::BufferCache(SimClock &clock, BlockLayer &lower,
                         std::size_t capacity_bytes,
                         double copy_bytes_per_sec,
                         double op_overhead_seconds)
    : clock_(clock), lower_(lower),
      capacityBlocks_(capacity_bytes / BLOCK_SIZE),
      copyBytesPerSec_(copy_bytes_per_sec),
      opOverheadSeconds_(op_overhead_seconds)
{
    if (capacityBlocks_ == 0)
        fatal("buffer cache needs at least one block of capacity");
}

void
BufferCache::chargeCopy()
{
    clock_.advanceSeconds(static_cast<double>(BLOCK_SIZE) /
                          copyBytesPerSec_);
}

void
BufferCache::insert(std::uint64_t index, std::span<const std::uint8_t> buf)
{
    auto it = map_.find(index);
    if (it != map_.end()) {
        it->second->data.assign(buf.begin(), buf.end());
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    if (lru_.size() >= capacityBlocks_) {
        map_.erase(lru_.back().index);
        lru_.pop_back();
    }
    lru_.push_front({index, {buf.begin(), buf.end()}});
    map_[index] = lru_.begin();
}

void
BufferCache::read(std::uint64_t index, std::span<std::uint8_t> buf,
                  bool direct_io)
{
    clock_.advanceSeconds(opOverheadSeconds_);
    if (direct_io) {
        lower_.readBlock(index, buf);
        return;
    }
    auto it = map_.find(index);
    if (it != map_.end()) {
        ++stats_.hits;
        std::memcpy(buf.data(), it->second->data.data(), BLOCK_SIZE);
        lru_.splice(lru_.begin(), lru_, it->second);
        chargeCopy();
        return;
    }
    ++stats_.misses;
    lower_.readBlock(index, buf);
    insert(index, {buf.data(), buf.size()});
}

void
BufferCache::write(std::uint64_t index, std::span<const std::uint8_t> buf,
                   bool direct_io)
{
    clock_.advanceSeconds(opOverheadSeconds_);
    ++stats_.writes;
    lower_.writeBlock(index, buf);
    if (!direct_io)
        insert(index, buf);
}

} // namespace sentry::os
