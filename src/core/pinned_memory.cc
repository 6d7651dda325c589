#include "core/pinned_memory.hh"

#include "common/logging.hh"

namespace sentry::core
{

const char *
pinBackingName(PinBacking backing)
{
    switch (backing) {
      case PinBacking::Iram:
        return "iram";
      case PinBacking::LockedL2:
        return "locked-l2";
      default:
        return "?";
    }
}

std::unique_ptr<PinnedMemory>
PinnedMemory::create(hw::Soc &soc, std::size_t pool_bytes,
                     PinBacking prefer)
{
    if (prefer == PinBacking::LockedL2) {
        // A dedicated window below Sentry's (which uses the top of
        // DRAM). Note the PL310 lockdown register is shared hardware:
        // use LockedL2 pools only when no other component manages
        // lockdown on this device.
        const std::size_t waySize = soc.l2().waySizeBytes();
        const PhysAddr window =
            alignDown(soc.dramEnd() - 2 * soc.l2().size(), waySize);
        auto ways = std::make_unique<LockedWayManager>(soc, window);
        if (!ways->available())
            return nullptr;
        if (pool_bytes > ways->waySize())
            panic("multi-way pinned pools are not implemented; "
                  "ask for <= %zu bytes", ways->waySize());
        const auto region = ways->lockWay();
        if (!region)
            fatal("not enough lockable ways for a %zu-byte pool",
                  pool_bytes);

        auto pinned = std::unique_ptr<PinnedMemory>(
            new PinnedMemory(soc, PinBacking::LockedL2, *region,
                             /*dma_protected=*/true, std::move(ways)));
        pinned->alloc_ =
            std::make_unique<OnSocAllocator>(region->base, region->size);
        return pinned;
    }

    // iRAM backing: carve from the TOP of iRAM (Sentry's own
    // allocations grow upward from the firmware-reserved boundary).
    if (pool_bytes > soc.iram().size() - IRAM_FIRMWARE_RESERVED)
        fatal("pinned pool larger than usable iRAM");
    const PhysAddr base = IRAM_BASE + soc.iram().size() - pool_bytes;

    bool protectedFromDma = false;
    {
        hw::SecureWorldGuard secure(soc.trustzone());
        if (secure.entered()) {
            protectedFromDma =
                soc.trustzone().protectRegionFromDma(base, pool_bytes);
        }
    }
    if (!protectedFromDma) {
        warn("pinned iRAM pool is NOT DMA-protected (no TrustZone "
             "access on this device)");
    }

    auto pinned = std::unique_ptr<PinnedMemory>(
        new PinnedMemory(soc, PinBacking::Iram, {base, pool_bytes},
                         protectedFromDma, nullptr));
    pinned->alloc_ = std::make_unique<OnSocAllocator>(base, pool_bytes);
    return pinned;
}

PinnedMemory::PinnedMemory(hw::Soc &soc, PinBacking backing,
                           OnSocRegion pool, bool dma_protected,
                           std::unique_ptr<LockedWayManager> way_manager)
    : soc_(soc), backing_(backing), pool_(pool),
      dmaProtected_(dma_protected), wayManager_(std::move(way_manager))
{}

PinnedMemory::~PinnedMemory()
{
    // Scrub the whole pool on teardown.
    soc_.memory().fill(pool_.base, 0, pool_.size);
    if (backing_ == PinBacking::Iram && dmaProtected_) {
        hw::SecureWorldGuard secure(soc_.trustzone());
        if (secure.entered()) {
            soc_.trustzone().unprotectRegionFromDma(pool_.base,
                                                    pool_.size);
        }
    }
    if (wayManager_ != nullptr)
        wayManager_->unlockWay(pool_);
}

OnSocRegion
PinnedMemory::alloc(std::size_t bytes)
{
    return alloc_->tryAlloc(bytes);
}

void
PinnedMemory::free(const OnSocRegion &region)
{
    if (!region.valid())
        return;
    soc_.memory().fill(region.base, 0, region.size);
    alloc_->free(region);
}

void
PinnedMemory::write(const OnSocRegion &region, std::size_t offset,
                    std::span<const std::uint8_t> data)
{
    if (offset + data.size() > region.size)
        panic("pinned write out of region bounds");
    soc_.memory().write(region.base + offset, data.data(), data.size());
}

void
PinnedMemory::read(const OnSocRegion &region, std::size_t offset,
                   std::span<std::uint8_t> out)
{
    if (offset + out.size() > region.size)
        panic("pinned read out of region bounds");
    soc_.memory().read(region.base + offset, out.data(), out.size());
}

} // namespace sentry::core
