#include "os/kernel.hh"

#include <cstring>

#include "common/logging.hh"

namespace sentry::os
{

namespace
{
/** Frames reserved at the top of DRAM for kernel stacks. */
constexpr std::size_t KERNEL_STACK_BYTES = PAGE_SIZE;
} // namespace

Kernel::Kernel(hw::Soc &soc)
    : soc_(soc), allocator_(DRAM_BASE, soc.dram().size()),
      scheduler_(soc.cpu())
{}

Kernel::KernelTimer::KernelTimer(Kernel &kernel)
    : kernel_(kernel), start_(kernel.soc_.clock().now()),
      outermost_(kernel.kernelTimerDepth_ == 0)
{
    ++kernel_.kernelTimerDepth_;
    if (outermost_)
        kernel_.kernelTimerStart_ = start_;
}

Kernel::KernelTimer::~KernelTimer()
{
    --kernel_.kernelTimerDepth_;
    if (outermost_) {
        kernel_.state_.kernelCycles +=
            kernel_.soc_.clock().now() - kernel_.kernelTimerStart_;
    }
}

Process &
Kernel::createProcess(const std::string &name)
{
    auto process = std::make_unique<Process>(state_.nextPid++, name);
    const PhysAddr stackFrame = allocator_.allocFrame();
    process->setKernelStackTop(stackFrame + KERNEL_STACK_BYTES);
    scheduler_.admit(process.get());
    processes_.push_back(std::move(process));
    return *processes_.back();
}

void
Kernel::destroyProcess(Process &process)
{
    scheduler_.remove(&process);
    // Pages go back to the allocator with their contents intact; the
    // zeroing kthread scrubs them eventually (paper: "Securing Freed
    // Pages").
    process.pageTable().forEach([&](VirtAddr, Pte &pte) {
        if (!pte.present)
            return;
        // Pages resident on-SoC return their DRAM home; the locked-cache
        // frame itself belongs to the pager, not the allocator.
        const PhysAddr frame = pte.onSoc ? pte.dramHome : pte.frame;
        state_.freedDirtyFrames.push_back(frame);
        allocator_.freeFrame(frame);
    });
    state_.freedDirtyFrames.push_back(process.kernelStackTop() -
                                      KERNEL_STACK_BYTES);
    allocator_.freeFrame(process.kernelStackTop() - KERNEL_STACK_BYTES);

    for (auto it = processes_.begin(); it != processes_.end(); ++it) {
        if (it->get() == &process) {
            processes_.erase(it);
            return;
        }
    }
    panic("destroyProcess: unknown process");
}

Vma &
Kernel::addVma(Process &process, const std::string &name, VmaType type,
               std::size_t size, SharePolicy share)
{
    Vma &vma = process.addressSpace().addVma(name, type, size, share);
    for (std::size_t page = 0; page < vma.pages(); ++page) {
        const PhysAddr frame = allocator_.allocFrame();
        process.pageTable().map(vma.base + page * PAGE_SIZE, frame);
    }
    return vma;
}

PhysAddr
Kernel::resolve(Process &process, VirtAddr va, bool write)
{
    Pte *pte = process.pageTable().find(va);
    if (pte == nullptr || !pte->present)
        panic("segfault: %s accesses unmapped VA 0x%llx",
              process.name().c_str(), static_cast<unsigned long long>(va));
    if (write && !pte->writable)
        panic("write to read-only page at VA 0x%llx",
              static_cast<unsigned long long>(va));

    if (!pte->young) {
        // Trap: enter the kernel fault path.
        KernelTimer timer(*this);
        ++state_.faultCount;
        soc_.clock().advance(soc_.config().cost.pageFaultCycles);
        soc_.energy().charge(hw::EnergyCategory::PageFault,
                             soc_.energy().params().pageFaultEach);
        const bool handled =
            faultHandler_ && faultHandler_(process, va, *pte);
        if (!handled)
            pte->young = true; // default: just set the accessed bit
        // Re-find: the handler may have remapped the page.
        pte = process.pageTable().find(va);
        if (pte == nullptr || !pte->present || !pte->young)
            panic("fault handler left VA 0x%llx unresolvable",
                  static_cast<unsigned long long>(va));
    }

    return pte->frame + (va % PAGE_SIZE);
}

void
Kernel::readVirt(Process &process, VirtAddr va, void *buf, std::size_t len)
{
    auto *out = static_cast<std::uint8_t *>(buf);
    while (len > 0) {
        const std::size_t inPage =
            std::min<std::size_t>(len, PAGE_SIZE - (va % PAGE_SIZE));
        const PhysAddr pa = resolve(process, va, false);
        soc_.memory().read(pa, out, inPage);
        va += inPage;
        out += inPage;
        len -= inPage;
    }
}

void
Kernel::writeVirt(Process &process, VirtAddr va, const void *buf,
                  std::size_t len)
{
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (len > 0) {
        const std::size_t inPage =
            std::min<std::size_t>(len, PAGE_SIZE - (va % PAGE_SIZE));
        const PhysAddr pa = resolve(process, va, true);
        soc_.memory().write(pa, in, inPage);
        va += inPage;
        in += inPage;
        len -= inPage;
    }
}

void
Kernel::touchRange(Process &process, VirtAddr va, std::size_t len,
                   bool write)
{
    std::uint8_t scratch[8] = {};
    const VirtAddr first = PageTable::pageOf(va);
    const VirtAddr last = PageTable::pageOf(va + len - 1);
    for (VirtAddr page = first; page <= last; page += PAGE_SIZE) {
        const PhysAddr pa = resolve(process, page, write);
        if (write)
            soc_.memory().write(pa, scratch, sizeof(scratch));
        else
            soc_.memory().read(pa, scratch, sizeof(scratch));
    }
}

std::size_t
Kernel::freedPendingBytes() const
{
    return state_.freedDirtyFrames.size() * PAGE_SIZE;
}

double
Kernel::zeroFreedPages()
{
    if (state_.freedDirtyFrames.empty())
        return 0.0;

    KernelTimer timer(*this);
    const std::size_t bytes = freedPendingBytes();
    for (const PhysAddr frame : state_.freedDirtyFrames)
        soc_.memory().fill(frame, 0, PAGE_SIZE);
    state_.freedDirtyFrames.clear();

    const double seconds = static_cast<double>(bytes) /
                           soc_.config().cost.zeroingBytesPerSec;
    soc_.clock().advanceSeconds(seconds);
    soc_.energy().charge(hw::EnergyCategory::Zeroing,
                         soc_.energy().params().zeroingPerByte *
                             static_cast<double>(bytes));
    return seconds;
}

KernelSnapshot
Kernel::snapshot() const
{
    KernelSnapshot snap{{},
                        std::make_shared<const PhysAllocator>(allocator_),
                        scheduler_.forkState(),
                        state_};
    snap.processes.reserve(processes_.size());
    for (const auto &process : processes_) {
        snap.processes.push_back(KernelSnapshot::ProcessImage{
            process->pid(), process->name(), process->pageTable(),
            process->addressSpace(), process->sensitive(),
            process->schedulable(), process->kernelStackTop()});
    }
    return snap;
}

void
Kernel::forkFrom(const KernelSnapshot &snap)
{
    processes_.clear();
    for (const KernelSnapshot::ProcessImage &image : snap.processes) {
        auto process = std::make_unique<Process>(image.pid, image.name);
        process->pageTable() = image.pageTable;
        process->addressSpace() = image.addressSpace;
        process->setSensitive(image.sensitive);
        process->setSchedulable(image.schedulable);
        process->setKernelStackTop(image.kernelStackTop);
        processes_.push_back(std::move(process));
    }
    scheduler_.restoreForkState(snap.queues, [this](int pid) {
        for (const auto &process : processes_) {
            if (process->pid() == pid)
                return process.get();
        }
        panic("Kernel::forkFrom: scheduler names unknown pid %d", pid);
    });

    // Assign the held image only when it changes: every worker shares
    // the template's, and a refcount update would bounce its cache line.
    const bool sameImage = snap.allocator == restoredAllocator_;
    allocator_.restore(*snap.allocator, sameImage);
    if (!sameImage)
        restoredAllocator_ = snap.allocator;

    state_ = snap.state;
    // Timer scopes never straddle a fork; reset the transient depth.
    kernelTimerDepth_ = 0;
    kernelTimerStart_ = 0;
}

void
Kernel::lockScreen()
{
    if (state_.powerState != PowerState::Awake)
        return;
    if (onLock_)
        onLock_();
    state_.powerState = PowerState::Locked;
}

void
Kernel::suspendToRam(double seconds)
{
    lockScreen(); // encrypt-on-lock runs before the CPU halts
    if (state_.powerState == PowerState::Locked)
        state_.powerState = PowerState::Suspended;
    if (seconds > 0) {
        soc_.clock().advanceSeconds(seconds);
        state_.suspendedSeconds += seconds;
    }
}

PowerState
Kernel::wakeUp(WakeReason reason)
{
    (void)reason; // all wake sources resume to the same locked state
    ++state_.wakeCount;
    if (state_.powerState == PowerState::Suspended)
        state_.powerState = PowerState::Locked;
    return state_.powerState;
}

bool
Kernel::unlockScreen(const std::string &pin)
{
    if (state_.powerState == PowerState::Awake)
        return true;
    if (state_.powerState == PowerState::DeepLock)
        return false; // PIN no longer accepted
    if (state_.powerState == PowerState::Suspended)
        wakeUp(WakeReason::UserInteraction);
    if (pin != state_.pin) {
        if (++state_.badPinAttempts >= 5) {
            state_.powerState = PowerState::DeepLock;
            if (onDeepLock_)
                onDeepLock_();
        }
        return false;
    }
    state_.badPinAttempts = 0;
    state_.powerState = PowerState::Awake;
    if (onUnlock_)
        onUnlock_();
    return true;
}

void
Kernel::setLockHooks(std::function<void()> on_lock,
                     std::function<void()> on_unlock)
{
    onLock_ = std::move(on_lock);
    onUnlock_ = std::move(on_unlock);
}

} // namespace sentry::os
