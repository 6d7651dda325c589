#include "core/locked_cache_pager.hh"

#include "common/logging.hh"

namespace sentry::core
{

LockedCachePager::LockedCachePager(
    os::Kernel &kernel, crypto::SimAesEngine &engine,
    std::function<crypto::Iv(const os::Process &, VirtAddr)> iv_fn)
    : kernel_(kernel), engine_(engine), ivFn_(std::move(iv_fn))
{}

void
LockedCachePager::addFrames(const OnSocRegion &region)
{
    if (region.base % PAGE_SIZE != 0 || region.size % PAGE_SIZE != 0)
        fatal("pager frames must be page aligned");
    for (std::size_t off = 0; off < region.size; off += PAGE_SIZE)
        freeFrames_.push_back(region.base + off);
}

std::size_t
LockedCachePager::totalFrames() const
{
    return freeFrames_.size() + residents_.size();
}

void
LockedCachePager::evictOne()
{
    if (residents_.empty())
        panic("pager eviction with no resident pages");
    Resident victim = residents_.front();
    residents_.pop_front();

    os::Pte *pte = victim.process->pageTable().find(victim.va);
    if (pte == nullptr || !pte->onSoc)
        panic("pager resident list out of sync at VA 0x%llx",
              static_cast<unsigned long long>(victim.va));

    hw::Soc &soc = kernel_.soc();
    // Encrypt in place (still inside the locked way), then copy the
    // ciphertext back to the page's DRAM home.
    engine_.cbcEncryptPhys(victim.frame, PAGE_SIZE,
                           ivFn_(*victim.process, victim.va));
    soc.memory().copy(pte->dramHome, victim.frame, PAGE_SIZE);
    // Software-managed coherence: push the ciphertext out to DRAM so
    // the cached copy is not the only one.
    soc.l2().cleanRange(pte->dramHome, PAGE_SIZE);

    pte->frame = pte->dramHome;
    pte->dramHome = 0;
    pte->onSoc = false;
    pte->encrypted = true;
    pte->young = false; // trap again on the next access

    stats_.bytesEncrypted += PAGE_SIZE;
    ++stats_.evictions;
    soc.energy().charge(hw::EnergyCategory::MemCopy,
                        soc.energy().params().memCopyPerByte * PAGE_SIZE);
    freeFrames_.push_back(victim.frame);
}

void
LockedCachePager::pageIn(os::Process &process, VirtAddr va, os::Pte &pte)
{
    if (!pte.encrypted || pte.onSoc)
        panic("pageIn on a page that is not encrypted-in-DRAM");
    if (freeFrames_.empty() && residents_.empty())
        fatal("locked-cache pager has no frames configured");

    if (freeFrames_.empty())
        evictOne();

    const PhysAddr frame = freeFrames_.back();
    freeFrames_.pop_back();

    hw::Soc &soc = kernel_.soc();
    const VirtAddr page = os::PageTable::pageOf(va);

    // Step 1 (Figure 1): copy the encrypted page into the locked way.
    soc.memory().copy(frame, pte.frame, PAGE_SIZE);
    soc.energy().charge(hw::EnergyCategory::MemCopy,
                        soc.energy().params().memCopyPerByte * PAGE_SIZE);

    // Step 2: decrypt in place (cleartext never leaves the way).
    engine_.cbcDecryptPhys(frame, PAGE_SIZE, ivFn_(process, page));

    // Step 3: repoint the PTE and set the young bit.
    pte.dramHome = pte.frame;
    pte.frame = frame;
    pte.onSoc = true;
    pte.encrypted = false;
    pte.young = true;

    residents_.push_back({&process, page, frame});
    stats_.bytesDecrypted += PAGE_SIZE;
    ++stats_.pageIns;
}

void
LockedCachePager::drainOnUnlock()
{
    hw::Soc &soc = kernel_.soc();
    while (!residents_.empty()) {
        Resident resident = residents_.front();
        residents_.pop_front();
        os::Pte *pte = resident.process->pageTable().find(resident.va);
        if (pte == nullptr || !pte->onSoc)
            panic("pager drain out of sync");
        // Unlocked device: plaintext may return to DRAM.
        soc.memory().copy(pte->dramHome, resident.frame, PAGE_SIZE);
        soc.energy().charge(hw::EnergyCategory::MemCopy,
                            soc.energy().params().memCopyPerByte *
                                PAGE_SIZE);
        pte->frame = pte->dramHome;
        pte->dramHome = 0;
        pte->onSoc = false;
        pte->encrypted = false;
        pte->young = true;
        freeFrames_.push_back(resident.frame);
    }
}

LockedCachePager::ForkState
LockedCachePager::forkState() const
{
    ForkState fs;
    fs.freeFrames = freeFrames_;
    for (const Resident &resident : residents_)
        fs.residents.push_back(ForkState::ResidentImage{
            resident.process->pid(), resident.va, resident.frame});
    fs.stats = stats_;
    return fs;
}

void
LockedCachePager::restoreForkState(const ForkState &fs)
{
    freeFrames_ = fs.freeFrames;
    residents_.clear();
    for (const ForkState::ResidentImage &image : fs.residents) {
        os::Process *found = nullptr;
        for (const auto &process : kernel_.processes()) {
            if (process->pid() == image.pid) {
                found = process.get();
                break;
            }
        }
        if (found == nullptr)
            panic("LockedCachePager::restoreForkState: unknown pid %d",
                  image.pid);
        residents_.push_back(Resident{found, image.va, image.frame});
    }
    stats_ = fs.stats;
}

} // namespace sentry::core
