/**
 * @file
 * Convenience bundle wiring a complete simulated device: the SoC, the
 * kernel, and Sentry. Most examples, tests, and benchmarks start here.
 *
 * Concurrency: a Device is share-nothing. It owns its entire simulated
 * stack and references no cross-device state, so any number of Device
 * instances may run concurrently on different threads (the fleet engine
 * in fleet/ does exactly that). A single Device is not internally
 * synchronised: drive it from one thread at a time. The only
 * process-global mutable state in the library is the atomic quiet flag
 * in common/logging.cc; immutable lazily-initialised singletons (the
 * canonical AES tables, the app profile list) use thread-safe magic
 * statics.
 */

#ifndef SENTRY_CORE_DEVICE_HH
#define SENTRY_CORE_DEVICE_HH

#include <memory>

#include "core/sentry.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"
#include "os/kernel.hh"

namespace sentry::core
{

/**
 * Immutable whole-device checkpoint: Soc + kernel + Sentry state.
 * Produced by Device::snapshot(), held by shared_ptr so one warmed
 * image can fan out to any number of forked devices (including from
 * multiple threads — the snapshot is never mutated after creation).
 */
struct DeviceSnapshot
{
    hw::SocSnapshot soc;
    os::KernelSnapshot kernel;
    SentrySnapshot sentry;
};

/** A booted device with Sentry installed. */
class Device
{
  public:
    /**
     * @param config  platform description (tegra3() / nexus4())
     * @param options Sentry configuration
     */
    explicit Device(const hw::PlatformConfig &config,
                    SentryOptions options = {})
        : soc_(config), kernel_(soc_), sentry_(kernel_, options)
    {}

    hw::Soc &soc() { return soc_; }
    os::Kernel &kernel() { return kernel_; }
    Sentry &sentry() { return sentry_; }

    /** Checkpoint the whole device. Cheap: cell arrays freeze
     * copy-on-write; only small state is deep-copied. */
    std::shared_ptr<const DeviceSnapshot>
    snapshot() const
    {
        return std::make_shared<const DeviceSnapshot>(DeviceSnapshot{
            soc_.snapshot(), kernel_.snapshot(), sentry_.snapshot()});
    }

    /**
     * Overwrite this device's entire simulated state with @p snap. The
     * target must be constructed from the same platform config and
     * Sentry options as the snapshotted device (fatal on mismatch).
     * Re-forking the same target any number of times is supported —
     * that is the boot-once / fan-out pattern — and a re-fork of the
     * snapshot it last forked from restores only the L2 sets and
     * memory pages changed since. Invalidates raw() spans of this
     * device's memories.
     */
    void
    forkFrom(const DeviceSnapshot &snap)
    {
        soc_.forkFrom(snap.soc);
        kernel_.forkFrom(snap.kernel);
        sentry_.forkFrom(snap.sentry);
    }

  private:
    hw::Soc soc_;
    os::Kernel kernel_;
    Sentry sentry_;
};

} // namespace sentry::core

#endif // SENTRY_CORE_DEVICE_HH
