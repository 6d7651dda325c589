#include "hw/trustzone.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace sentry::hw
{

SecureFuse::SecureFuse(std::uint64_t seed)
{
    Rng rng(seed ^ 0xf05ecafeULL);
    for (std::size_t i = 0; i < secret_.size(); i += 8) {
        const std::uint64_t word = rng.next64();
        for (std::size_t j = 0; j < 8; ++j)
            secret_[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
    }
}

TrustZone::TrustZone(bool secure_world_available, std::uint64_t fuse_seed)
    : secureAvailable_(secure_world_available), fuse_(fuse_seed)
{}

bool
TrustZone::enterSecureWorld()
{
    if (!secureAvailable_)
        return false;
    state_.world = World::Secure;
    ++state_.smcEntries;
    return true;
}

void
TrustZone::exitSecureWorld()
{
    state_.world = World::Normal;
}

bool
TrustZone::readFuse(std::array<std::uint8_t, 32> &out) const
{
    if (state_.world != World::Secure)
        return false;
    out = fuse_.secret();
    return true;
}

bool
TrustZone::protectRegionFromDma(PhysAddr base, std::size_t size)
{
    if (state_.world != World::Secure)
        return false;
    state_.dmaProtected.push_back({base, size});
    return true;
}

bool
TrustZone::unprotectRegionFromDma(PhysAddr base, std::size_t size)
{
    if (state_.world != World::Secure)
        return false;
    auto &regions = state_.dmaProtected;
    const auto it =
        std::find(regions.begin(), regions.end(), std::pair{base, size});
    if (it == regions.end())
        return false;
    regions.erase(it);
    return true;
}

bool
TrustZone::bindSharedBuffer(PhysAddr base, std::size_t size)
{
    if (state_.world != World::Secure)
        return false;
    state_.sharedBase = base;
    state_.sharedSize = size;
    return true;
}

bool
TrustZone::dmaDenied(PhysAddr addr, std::size_t len) const
{
    for (const auto &[base, size] : state_.dmaProtected) {
        if (addr < base + size && base < addr + len)
            return true;
    }
    return false;
}

SecureWorldGuard::SecureWorldGuard(TrustZone &tz)
    : tz_(tz), entered_(tz.enterSecureWorld())
{}

SecureWorldGuard::~SecureWorldGuard()
{
    if (entered_)
        tz_.exitSecureWorld();
}

} // namespace sentry::hw
