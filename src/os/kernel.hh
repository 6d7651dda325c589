/**
 * @file
 * The mini-kernel: process/VMA management, the virtual-memory access
 * path with young-bit fault delivery, screen-lock power management with
 * Sentry hooks, the freed-page zeroing thread, and the crypto registry.
 *
 * This is the substrate the paper's kernel modifications are expressed
 * against; core/Sentry installs its fault handler and lock/unlock hooks
 * here rather than the kernel knowing about Sentry.
 */

#ifndef SENTRY_OS_KERNEL_HH
#define SENTRY_OS_KERNEL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "crypto/crypto_api.hh"
#include "hw/soc.hh"
#include "os/phys_allocator.hh"
#include "os/process.hh"
#include "os/scheduler.hh"

namespace sentry::os
{

/** Device power/UI state. */
enum class PowerState
{
    Awake,
    Locked,    //!< screen locked; Sentry protections active
    Suspended, //!< S3 suspend-to-RAM: locked + CPU halted
    DeepLock,  //!< too many bad PINs; unlock requires full credentials
};

/** What pulled the device out of suspend. */
enum class WakeReason
{
    UserInteraction, //!< power/home/camera button
    IncomingCall,
    TimerAlarm,
    Notification,
};

struct KernelSnapshot;

/** The operating system kernel. */
class Kernel
{
  public:
    explicit Kernel(hw::Soc &soc);

    hw::Soc &soc() { return soc_; }
    PhysAllocator &allocator() { return allocator_; }
    Scheduler &scheduler() { return scheduler_; }
    crypto::CryptoApi &cryptoApi() { return cryptoApi_; }

    // ---- processes & memory -------------------------------------------

    /** Create a process (with a kernel stack) and admit it to the run
     *  queue. The kernel owns the Process object. */
    Process &createProcess(const std::string &name);

    /** Exit a process: all its pages go to the freed list *unscrubbed*
     *  (their contents remain in DRAM until the zero thread runs). */
    void destroyProcess(Process &process);

    /** @return all live processes. */
    const std::vector<std::unique_ptr<Process>> &processes() const
    {
        return processes_;
    }

    /**
     * Add a VMA of @p size bytes to @p process, allocating and mapping
     * frames.
     */
    Vma &addVma(Process &process, const std::string &name, VmaType type,
                std::size_t size,
                SharePolicy share = SharePolicy::Private);

    /**
     * Resolve @p va for an access, delivering a young-bit fault to the
     * installed handler when needed.
     * @return the physical address.
     */
    PhysAddr resolve(Process &process, VirtAddr va, bool write);

    /** Read process memory through the paging path. */
    void readVirt(Process &process, VirtAddr va, void *buf,
                  std::size_t len);

    /** Write process memory through the paging path. */
    void writeVirt(Process &process, VirtAddr va, const void *buf,
                   std::size_t len);

    /** Touch every page of [va, va+len) (read access). */
    void touchRange(Process &process, VirtAddr va, std::size_t len,
                    bool write = false);

    /**
     * Install the page-fault handler (Sentry). The handler returns true
     * when it serviced the fault; the kernel then retries the access.
     */
    using FaultHandler = std::function<bool(Process &, VirtAddr, Pte &)>;
    void setFaultHandler(FaultHandler handler)
    {
        faultHandler_ = std::move(handler);
    }

    /** @return young-bit faults delivered so far. */
    std::uint64_t faultCount() const { return state_.faultCount; }

    // ---- freed pages ---------------------------------------------------

    /** @return bytes on the freed list still holding stale data. */
    std::size_t freedPendingBytes() const;

    /**
     * Run the zeroing kthread until the freed list is clean (charges
     * time at the platform zeroing rate and energy per byte).
     * @return simulated seconds spent.
     */
    double zeroFreedPages();

    // ---- screen lock ---------------------------------------------------

    PowerState powerState() const { return state_.powerState; }

    /** Set the unlock PIN. */
    void setPin(std::string pin) { state_.pin = std::move(pin); }

    /** Lock the screen; runs the registered on-lock hook. */
    void lockScreen();

    /**
     * Suspend to RAM (ACPI-S3 style): the screen locks first (running
     * Sentry's encrypt-on-lock), then the CPU halts for @p seconds of
     * simulated time, drawing only the suspend floor power.
     */
    void suspendToRam(double seconds = 0.0);

    /**
     * Wake from suspend. The device comes back *locked*: waking is not
     * unlocking (paper section 7, "Secure On Suspend").
     * @return the state after wake (Locked, or DeepLock if it was).
     */
    PowerState wakeUp(WakeReason reason);

    /** @return total simulated seconds spent suspended. */
    double suspendedSeconds() const { return state_.suspendedSeconds; }

    /** @return wake events delivered so far. */
    std::uint64_t wakeCount() const { return state_.wakeCount; }

    /**
     * Attempt an unlock. Five consecutive failures enter DeepLock.
     * @return true on success (hook ran, state Awake).
     */
    bool unlockScreen(const std::string &pin);

    /** Register Sentry's lock/unlock hooks. */
    void setLockHooks(std::function<void()> on_lock,
                      std::function<void()> on_unlock);

    /** Register a hook run when five bad PINs trigger DeepLock. */
    void setDeepLockHook(std::function<void()> on_deep_lock)
    {
        onDeepLock_ = std::move(on_deep_lock);
    }

    // ---- kernel-time accounting ----------------------------------------

    /** @return cycles attributed to kernel work since the last reset. */
    Cycles kernelCycles() const { return state_.kernelCycles; }

    /** Zero the kernel-time accumulator. */
    void resetKernelCycles() { state_.kernelCycles = 0; }

    // ---- snapshot / fork -----------------------------------------------

    /**
     * The kernel's scalar simulated state: a fork copies it whole.
     * Outside it: the Soc, the hooks and the crypto registry (wiring);
     * the allocator, the scheduler and the process list, which restore
     * through their own code (by delta, and by rebinding pids); the
     * restored-allocator pointer (a host cache); and the kernel-timer
     * depth and start (transient scopes, never open across a fork).
     */
    struct State
    {
        int nextPid = 1;
        std::uint64_t faultCount = 0;
        std::vector<PhysAddr> freedDirtyFrames;
        PowerState powerState = PowerState::Awake;
        std::string pin = "0000";
        unsigned badPinAttempts = 0;
        double suspendedSeconds = 0.0;
        std::uint64_t wakeCount = 0;
        Cycles kernelCycles = 0;

        bool operator==(const State &) const = default;
    };

    /** Capture all kernel state (processes as rebuildable images). */
    KernelSnapshot snapshot() const;

    /**
     * Replace this kernel's state with @p snap: existing processes are
     * discarded, the snapshot's are rebuilt with their original pids,
     * and scheduler queues are re-threaded onto the new objects.
     * Re-forking from the allocator image this kernel last restored
     * copies back only what the allocator changed since. Installed
     * hooks and the crypto registry are left untouched.
     */
    void forkFrom(const KernelSnapshot &snap);

    /** RAII scope attributing elapsed simulated time to the kernel. */
    class KernelTimer
    {
      public:
        explicit KernelTimer(Kernel &kernel);
        ~KernelTimer();
        KernelTimer(const KernelTimer &) = delete;
        KernelTimer &operator=(const KernelTimer &) = delete;

      private:
        Kernel &kernel_;
        Cycles start_;
        bool outermost_;
    };

  private:
    friend class KernelTimer;

    hw::Soc &soc_;
    PhysAllocator allocator_;
    /** The image allocator_ was last restored from; held, so identity
     * is a pointer compare that cannot be fooled by a freed and reused
     * address. */
    std::shared_ptr<const PhysAllocator> restoredAllocator_;
    Scheduler scheduler_;
    crypto::CryptoApi cryptoApi_;

    std::vector<std::unique_ptr<Process>> processes_;
    State state_;

    FaultHandler faultHandler_;
    std::function<void()> onLock_;
    std::function<void()> onUnlock_;
    std::function<void()> onDeepLock_;

    unsigned kernelTimerDepth_ = 0;
    Cycles kernelTimerStart_ = 0;
};

/**
 * Checkpoint of all kernel state, produced by Kernel::snapshot().
 *
 * Process objects are captured as rebuildable images (page tables and
 * address spaces copied by value, scheduler membership by pid); hooks
 * (fault handler, lock hooks) and the crypto registry are wiring and
 * stay with each device. The allocator is an immutable image that
 * every fork of the snapshot shares; the scalars are Kernel::State.
 * Page *contents* live in the SocSnapshot's COW DRAM image, not here.
 */
struct KernelSnapshot
{
    struct ProcessImage
    {
        int pid = 0;
        std::string name;
        PageTable pageTable;
        AddressSpace addressSpace;
        bool sensitive = false;
        bool schedulable = true;
        PhysAddr kernelStackTop = 0;

        bool operator==(const ProcessImage &) const = default;
    };

    std::vector<ProcessImage> processes;
    std::shared_ptr<const PhysAllocator> allocator;
    Scheduler::ForkState queues;
    Kernel::State state;
};

} // namespace sentry::os

#endif // SENTRY_OS_KERNEL_HH
