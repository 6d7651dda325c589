/**
 * @file
 * ARM TrustZone model: the secure/normal world split, the secure
 * hardware fuse, and the two access-control duties Sentry gives the
 * secure world (paper sections 3.1, 4.4, 10):
 *
 *   1. gating the PL310 lockdown registers (cache locking can only be
 *      configured from the secure world);
 *   2. denying DMA access to protected regions (iRAM), since an IOMMU
 *      is absent and DMA devices cannot be authenticated.
 *
 * On retail devices with locked firmware (the Nexus 4 prototype) the
 * secure world is inaccessible, which is modelled by constructing the
 * TrustZone with secure-world entry disabled — exactly why the paper's
 * Nexus prototype cannot use cache locking.
 */

#ifndef SENTRY_HW_TRUSTZONE_HH
#define SENTRY_HW_TRUSTZONE_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace sentry::hw
{

/** Processor security state. */
enum class World
{
    Normal,
    Secure,
};

/**
 * The write-once secret burned into the device at provisioning time;
 * readable only from the secure world.
 */
class SecureFuse
{
  public:
    /** Provision the fuse with a random secret derived from @p seed. */
    explicit SecureFuse(std::uint64_t seed);

    /** @return the 32-byte fuse secret (caller must be in secure world;
     *          enforced by TrustZone::readFuse). */
    const std::array<std::uint8_t, 32> &secret() const { return secret_; }

  private:
    std::array<std::uint8_t, 32> secret_;
};

/** TrustZone security controller. */
class TrustZone
{
  public:
    /**
     * @param secure_world_available false on devices with locked boot
     *        firmware (no way to install secure-world code)
     * @param fuse_seed seed for the provisioning-time fuse secret
     */
    TrustZone(bool secure_world_available, std::uint64_t fuse_seed);

    /** @return the current processor world. */
    World world() const { return state_.world; }

    /** @return true if secure-world entry is possible on this device. */
    bool secureWorldAvailable() const { return secureAvailable_; }

    /**
     * SMC into the secure world. @return false when the device's
     * firmware is locked and no secure-world code can run.
     */
    bool enterSecureWorld();

    /** SMC back to the normal world. */
    void exitSecureWorld();

    /** Provision the fuse anew from @p fuse_seed, as construction
     * does (Soc::reseed). */
    void
    provisionFuse(std::uint64_t fuse_seed)
    {
        fuse_ = SecureFuse(fuse_seed);
    }

    /**
     * Read the fuse secret.
     * @return true and fill @p out when in the secure world;
     *         false otherwise (the hardware refuses).
     */
    bool readFuse(std::array<std::uint8_t, 32> &out) const;

    /**
     * Protect [base, base+size) from all DMA masters. Secure world only.
     * @return false if not in the secure world.
     */
    bool protectRegionFromDma(PhysAddr base, std::size_t size);

    /** Remove a DMA protection. Secure world only. */
    bool unprotectRegionFromDma(PhysAddr base, std::size_t size);

    /** @return true if any byte of [addr, addr+len) is DMA-protected. */
    bool dmaDenied(PhysAddr addr, std::size_t len) const;

    /**
     * @return true if the current world may program the PL310 lockdown
     *         registers (secure world only).
     */
    bool lockdownConfigAllowed() const
    {
        return state_.world == World::Secure;
    }

    /**
     * Register the world-shared mailbox buffer a secure service uses to
     * pass results to the normal world (the Ahn & Lee side-channel
     * setting: the buffer is cacheable and normal-world-visible, so the
     * secure service's access pattern on it leaks through the shared
     * L2). Secure world only; @return false otherwise.
     */
    bool bindSharedBuffer(PhysAddr base, std::size_t size);

    /** @return true once bindSharedBuffer succeeded. */
    bool hasSharedBuffer() const { return state_.sharedSize != 0; }

    /** @return the shared mailbox base (0 when unbound). */
    PhysAddr sharedBufferBase() const { return state_.sharedBase; }

    /** @return the shared mailbox size (0 when unbound). */
    std::size_t sharedBufferSize() const { return state_.sharedSize; }

    /** @return successful secure-world entries so far (SMC count). */
    std::uint64_t smcEntries() const { return state_.smcEntries; }

    /**
     * The controller's simulated security state: a fork copies it
     * whole. Outside it are the fuse secret and secure-world
     * availability, derived from the device's own seed and platform: a
     * fork keeps the target's, and Soc::reseed re-derives the fuse.
     */
    struct State
    {
        World world = World::Normal;
        /** DMA-protected ranges as (base, size). */
        std::vector<std::pair<PhysAddr, std::size_t>> dmaProtected;
        PhysAddr sharedBase = 0;
        std::size_t sharedSize = 0;
        std::uint64_t smcEntries = 0;

        bool operator==(const State &) const = default;
    };

    State forkState() const { return state_; }
    void restoreForkState(const State &state) { state_ = state; }

  private:
    bool secureAvailable_;
    SecureFuse fuse_;
    State state_;
};

/** RAII secure-world section; fatal if the device's firmware is locked. */
class SecureWorldGuard
{
  public:
    explicit SecureWorldGuard(TrustZone &tz);
    ~SecureWorldGuard();

    SecureWorldGuard(const SecureWorldGuard &) = delete;
    SecureWorldGuard &operator=(const SecureWorldGuard &) = delete;

    /** @return true if secure world was actually entered. */
    bool entered() const { return entered_; }

  private:
    TrustZone &tz_;
    bool entered_;
};

} // namespace sentry::hw

#endif // SENTRY_HW_TRUSTZONE_HH
