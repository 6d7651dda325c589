#include "core/sentry.hh"

#include "common/logging.hh"

namespace sentry::core
{

const char *
aesPlacementName(AesPlacement placement)
{
    switch (placement) {
      case AesPlacement::KernelGeneric:
        return "kernel-generic";
      case AesPlacement::Iram:
        return "iram";
      case AesPlacement::LockedL2:
        return "locked-l2";
      default:
        return "?";
    }
}

namespace
{

/** The locked-way window sits at the top of DRAM, way-aligned. */
PhysAddr
lockedWindowBase(const hw::Soc &soc, std::size_t way_size,
                 std::size_t l2_size)
{
    return alignDown(soc.dramEnd() - l2_size, way_size);
}

crypto::StatePlacement
toStatePlacement(AesPlacement placement)
{
    switch (placement) {
      case AesPlacement::KernelGeneric:
        return crypto::StatePlacement::Dram;
      case AesPlacement::Iram:
        return crypto::StatePlacement::Iram;
      case AesPlacement::LockedL2:
        return crypto::StatePlacement::LockedL2;
    }
    panic("bad placement");
}

} // namespace

Sentry::Sentry(os::Kernel &kernel, SentryOptions options)
    : kernel_(kernel), options_(options), placement_(options.placement),
      iramAlloc_(OnSocAllocator::forIram(kernel.soc().iram().size())),
      wayManager_(kernel.soc(),
                  lockedWindowBase(kernel.soc(),
                                   kernel.soc().l2().waySizeBytes(),
                                   kernel.soc().l2().size()))
{
    hw::Soc &soc = kernel_.soc();

    // Keep the OS away from the locked-way window.
    kernel_.allocator().reserveRange(
        lockedWindowBase(soc, soc.l2().waySizeBytes(), soc.l2().size()),
        soc.l2().size());

    // Degrade gracefully on locked-firmware devices.
    const bool wantLocking =
        placement_ == AesPlacement::LockedL2 || options_.backgroundMode;
    if (wantLocking && !wayManager_.available()) {
        warn("cache locking unavailable on %s; using iRAM placement",
             soc.config().name.c_str());
        if (placement_ == AesPlacement::LockedL2)
            placement_ = AesPlacement::Iram;
        options_.backgroundMode = false;
    }

    // Root keys live in iRAM in every configuration.
    keys_ = std::make_unique<KeyManager>(soc, iramAlloc_.alloc(32));
    keys_->generateVolatileKey();

    // Sentry protects iRAM from DMA whenever TrustZone permits.
    {
        hw::SecureWorldGuard secure(soc.trustzone());
        if (secure.entered()) {
            soc.trustzone().protectRegionFromDma(IRAM_BASE,
                                                 soc.iram().size());
        }
    }

    // Carve the AES state region according to placement.
    const auto layout = crypto::AesStateLayout::forKeyBytes(16);
    PhysAddr stateBase = 0;
    switch (placement_) {
      case AesPlacement::Iram:
        stateBase = iramAlloc_.alloc(layout.totalBytes()).base;
        break;
      case AesPlacement::LockedL2: {
        engineWay_ = wayManager_.lockWay();
        if (!engineWay_)
            fatal("failed to lock a cache way for AES state");
        engineWayAlloc_ = std::make_unique<OnSocAllocator>(
            engineWay_->base, engineWay_->size);
        stateBase = engineWayAlloc_->alloc(layout.totalBytes()).base;
        break;
      }
      case AesPlacement::KernelGeneric: {
        const std::size_t frames =
            alignUp(layout.totalBytes(), PAGE_SIZE) / PAGE_SIZE;
        stateBase = kernel_.allocator().allocContiguous(frames);
        break;
      }
    }

    const RootKey volatileKey = keys_->volatileKey();
    engine_ = std::make_unique<crypto::SimAesEngine>(
        soc, stateBase, std::span<const std::uint8_t>(volatileKey),
        toStatePlacement(placement_), /*kernel_path=*/true);

    // Plug in the defense backend. The Sentry backend wraps engine_ and
    // reproduces the pre-backend behaviour bit for bit; Amnesia and
    // MemShield build their own key/engine machinery on top.
    backend_ = makeDefenseBackend(options_.defense, kernel_, *engine_,
                                  volatileKey, iramAlloc_);

    // Background paging: lock pagerWays ways as frame pool.
    if (options_.backgroundMode) {
        pager_ = std::make_unique<LockedCachePager>(
            kernel_, backend_->pagerCipher(),
            [this](const os::Process &p, VirtAddr va) {
                return pageIv(p, va);
            });
        for (unsigned i = 0; i < options_.pagerWays; ++i) {
            const auto region = wayManager_.lockWay();
            if (!region)
                fatal("could not lock %u pager ways", options_.pagerWays);
            pager_->addFrames(*region);
        }
    }

    kernel_.setFaultHandler(
        [this](os::Process &p, VirtAddr va, os::Pte &pte) {
            return handleFault(p, va, pte);
        });
    kernel_.setLockHooks([this] { onLock(); }, [this] { onUnlock(); });
    kernel_.setDeepLockHook([this] { onDeepLock(); });
}

void
Sentry::markSensitive(os::Process &process)
{
    process.setSensitive(true);
}

void
Sentry::markBackground(os::Process &process)
{
    if (!process.sensitive())
        fatal("background protection requires markSensitive first");
    if (!options_.backgroundMode)
        fatal("background mode is not enabled in this configuration");
    backgroundPids_.insert(process.pid());
}

crypto::Iv
Sentry::pageIv(const os::Process &process, VirtAddr va) const
{
    crypto::Iv iv{};
    const auto pid = static_cast<std::uint32_t>(process.pid());
    const VirtAddr page = os::PageTable::pageOf(va);
    for (int i = 0; i < 4; ++i)
        iv[i] = static_cast<std::uint8_t>(pid >> (8 * i));
    for (int i = 0; i < 8; ++i)
        iv[4 + i] = static_cast<std::uint8_t>(page >> (8 * i));
    for (int i = 0; i < 4; ++i)
        iv[12 + i] = static_cast<std::uint8_t>(lockEpoch_ >> (8 * i));
    return iv;
}

bool
Sentry::pageIsSkipped(const os::Vma &vma) const
{
    // Pages shared with non-sensitive processes are assumed non-secret
    // and skipped (paper section 7).
    return vma.share == os::SharePolicy::SharedWithNonSensitive;
}

void
Sentry::encryptProcess(os::Process &process)
{
    for (const os::Vma &vma : process.addressSpace().vmas()) {
        if (pageIsSkipped(vma))
            continue;
        for (std::size_t page = 0; page < vma.pages(); ++page) {
            const VirtAddr va = vma.base + page * PAGE_SIZE;
            os::Pte *pte = process.pageTable().find(va);
            if (pte == nullptr || !pte->present || pte->encrypted ||
                pte->onSoc) {
                continue;
            }
            backend_->encryptPage(pte->frame, pageIv(process, va));
            pte->encrypted = true;
            pte->young = false;
            stats_.bytesEncryptedOnLock += PAGE_SIZE;
        }
    }
}

void
Sentry::onLock()
{
    os::Kernel::KernelTimer timer(kernel_);
    SimStopwatch watch(kernel_.soc().clock());

    // Freed pages of sensitive apps may still hold cleartext; make the
    // zero thread finish before the device is considered locked.
    if (options_.waitForZeroThread)
        kernel_.zeroFreedPages();

    ++lockEpoch_;
    backend_->onLockEpoch(lockEpoch_);
    for (const auto &process : kernel_.processes()) {
        if (!process->sensitive())
            continue;
        encryptProcess(*process);
        if (!backgroundPids_.contains(process->pid()))
            kernel_.scheduler().makeUnschedulable(process.get());
    }

    // Push ciphertext out of the (unlocked part of the) cache so DRAM
    // holds no stale plaintext lines.
    if (options_.cleanCacheAfterLock)
        kernel_.soc().l2().cleanAllMasked();

    // The encrypt sweep re-encrypted every working-set resident.
    workingSet_.clear();

    ++stats_.lockCount;
    stats_.lastLockSeconds = watch.elapsedSeconds();
}

void
Sentry::onUnlock()
{
    os::Kernel::KernelTimer timer(kernel_);
    SimStopwatch watch(kernel_.soc().clock());

    if (pager_)
        pager_->drainOnUnlock();

    for (const auto &process : kernel_.processes()) {
        if (!process->sensitive())
            continue;
        if (!process->schedulable())
            kernel_.scheduler().makeSchedulable(process.get());

        if (!options_.eagerDmaDecrypt)
            continue;
        // DMA regions never fault (devices use physical addresses), so
        // they must be whole before the device resumes.
        for (const os::Vma &vma : process->addressSpace().vmas()) {
            if (vma.type != os::VmaType::DmaRegion)
                continue;
            for (std::size_t page = 0; page < vma.pages(); ++page) {
                const VirtAddr va = vma.base + page * PAGE_SIZE;
                os::Pte *pte = process->pageTable().find(va);
                if (pte == nullptr || !pte->encrypted)
                    continue;
                backend_->decryptPage(pte->frame, pageIv(*process, va));
                pte->encrypted = false;
                pte->young = true;
                stats_.bytesDecryptedEager += PAGE_SIZE;
            }
        }
    }

    stats_.lastUnlockSeconds = watch.elapsedSeconds();
}

void
Sentry::onDeepLock()
{
    if (!options_.scrubKeysOnDeepLock || keysDestroyed_)
        return;
    // Brute-force response: destroy the volatile root key and every
    // trace of the AES state. The encrypted pages in DRAM are now
    // noise; nothing on or off the SoC can decrypt them.
    engine_->scrub();
    keys_->scrub();
    backend_->scrubSecrets();
    keysDestroyed_ = true;
}

bool
Sentry::handleFault(os::Process &process, VirtAddr va, os::Pte &pte)
{
    if (!pte.encrypted)
        return false; // plain young-bit maintenance

    ++stats_.faultsServiced;

    if (keysDestroyed_) {
        // Deep lock destroyed the keys: the page content is gone for
        // good. Hand back a zeroed page (remote-wipe semantics).
        kernel_.soc().memory().fill(pte.frame, 0, PAGE_SIZE);
        pte.encrypted = false;
        pte.young = true;
        stats_.bytesWipedAfterDeepLock += PAGE_SIZE;
        return true;
    }

    const bool deviceLocked =
        kernel_.powerState() == os::PowerState::Locked ||
        kernel_.powerState() == os::PowerState::Suspended;
    const bool lockedBackground =
        deviceLocked && pager_ && backgroundPids_.contains(process.pid());
    if (lockedBackground) {
        pager_->pageIn(process, va, pte);
        return true;
    }

    // Decrypt-on-demand (device unlocked, or a non-pager access).
    const VirtAddr page = os::PageTable::pageOf(va);
    backend_->decryptPage(pte.frame, pageIv(process, page));
    pte.encrypted = false;
    pte.young = true;
    stats_.bytesDecryptedOnDemand += PAGE_SIZE;
    noteWorkingSetPage(process, page);
    return true;
}

void
Sentry::noteWorkingSetPage(os::Process &process, VirtAddr page)
{
    const std::size_t cap = backend_->plaintextWorkingSetCap();
    if (cap == 0)
        return; // unbounded plaintext (Sentry/Amnesia while unlocked)
    workingSet_.emplace_back(process.pid(), page);
    while (workingSet_.size() > cap)
        evictWorkingSetPage();
}

void
Sentry::evictWorkingSetPage()
{
    const auto [pid, va] = workingSet_.front();
    workingSet_.pop_front();
    for (const auto &process : kernel_.processes()) {
        if (process->pid() != pid)
            continue;
        os::Pte *pte = process->pageTable().find(va);
        if (pte == nullptr || !pte->present || pte->encrypted ||
            pte->onSoc) {
            return;
        }
        backend_->encryptPage(pte->frame, pageIv(*process, va));
        pte->encrypted = true;
        pte->young = false;
        ++backend_->costs().evictions;
        return;
    }
}

void
Sentry::registerCryptoProviders()
{
    hw::Soc &soc = kernel_.soc();

    kernel_.cryptoApi().registerImplementation(
        {"aes", "aes-generic", 100,
         [this, &soc](std::span<const std::uint8_t> key) {
             const auto layout =
                 crypto::AesStateLayout::forKeyBytes(
                     static_cast<unsigned>(key.size()));
             const std::size_t frames =
                 alignUp(layout.totalBytes(), PAGE_SIZE) / PAGE_SIZE;
             const PhysAddr base =
                 kernel_.allocator().allocContiguous(frames);
             return std::make_unique<crypto::SimAesEngine>(
                 soc, base, key, crypto::StatePlacement::Dram,
                 /*kernel_path=*/true);
         }});

    if (placement_ == AesPlacement::KernelGeneric)
        return; // nothing better to offer

    const std::string name =
        std::string("aes-onsoc-") + aesPlacementName(placement_);
    kernel_.cryptoApi().registerImplementation(
        {"aes", name, 300,
         [this, &soc](std::span<const std::uint8_t> key) {
             const auto layout =
                 crypto::AesStateLayout::forKeyBytes(
                     static_cast<unsigned>(key.size()));
             PhysAddr base = 0;
             crypto::StatePlacement statePlacement =
                 crypto::StatePlacement::Iram;
             if (placement_ == AesPlacement::LockedL2 &&
                 engineWayAlloc_ != nullptr) {
                 // Each cipher gets its own slice of the locked way;
                 // overflow to iRAM when the way fills up.
                 const OnSocRegion region =
                     engineWayAlloc_->tryAlloc(layout.totalBytes());
                 if (region.valid()) {
                     base = region.base;
                     statePlacement = crypto::StatePlacement::LockedL2;
                 } else {
                     base = iramAlloc_.alloc(layout.totalBytes()).base;
                 }
             } else {
                 base = iramAlloc_.alloc(layout.totalBytes()).base;
             }
             return std::make_unique<crypto::SimAesEngine>(
                 soc, base, key, statePlacement, /*kernel_path=*/true);
         }});

    // Amnesia's dm-crypt path: register-only ciphers (no key schedule
    // in memory, tables in DRAM) outrank even AES On SoC, so block
    // crypto follows the same no-keys-in-DRAM policy as page crypto.
    // MemShield keeps the AES-On-SoC provider: its engine speaks whole
    // pages, not the Crypto API's block interface.
    if (options_.defense == DefenseKind::Amnesia) {
        kernel_.cryptoApi().registerImplementation(
            {"aes", "aes-amnesia", 400,
             [this, &soc](std::span<const std::uint8_t> key) {
                 const auto layout =
                     crypto::AesStateLayout::forKeyBytes(
                         static_cast<unsigned>(key.size()));
                 const std::size_t frames =
                     alignUp(layout.totalBytes(), PAGE_SIZE) / PAGE_SIZE;
                 const PhysAddr base =
                     kernel_.allocator().allocContiguous(frames);
                 return std::make_unique<crypto::SimAesEngine>(
                     soc, base, key, crypto::StatePlacement::Dram,
                     /*kernel_path=*/true,
                     crypto::SecretResidency::RegistersOnly);
             }});
    }
}

SentrySnapshot
Sentry::snapshot() const
{
    return SentrySnapshot{
        placement_,
        options_.backgroundMode,
        iramAlloc_,
        wayManager_.lockedMask(),
        engineWay_,
        engineWayAlloc_ != nullptr
            ? std::optional<OnSocAllocator>(*engineWayAlloc_)
            : std::nullopt,
        keys_->hasPersistentKey(),
        engine_->forkState(),
        pager_ != nullptr
            ? std::optional<LockedCachePager::ForkState>(
                  pager_->forkState())
            : std::nullopt,
        backgroundPids_,
        lockEpoch_,
        keysDestroyed_,
        stats_,
        !kernel_.cryptoApi().implementations().empty(),
        options_.defense,
        backend_->forkState(),
        {workingSet_.begin(), workingSet_.end()}};
}

void
Sentry::forkFrom(const SentrySnapshot &snap)
{
    if (snap.placement != placement_)
        fatal("Sentry::forkFrom: snapshot placement %s does not match "
              "target placement %s",
              aesPlacementName(snap.placement),
              aesPlacementName(placement_));
    if (snap.backgroundMode != options_.backgroundMode)
        fatal("Sentry::forkFrom: background-mode mismatch");
    if (!snap.engine.has_value())
        fatal("Sentry::forkFrom: snapshot lacks engine state");
    if ((pager_ != nullptr) != snap.pager.has_value())
        fatal("Sentry::forkFrom: pager presence mismatch");
    if (snap.defenseKind != options_.defense)
        fatal("Sentry::forkFrom: snapshot defense backend %s does not "
              "match target backend %s",
              defenseKindName(snap.defenseKind),
              defenseKindName(options_.defense));

    iramAlloc_ = snap.iramAlloc;
    wayManager_.restoreLockedMask(snap.lockedWayMask);
    engineWay_ = snap.engineWay;
    engineWayAlloc_ =
        snap.engineWayAlloc.has_value()
            ? std::make_unique<OnSocAllocator>(*snap.engineWayAlloc)
            : nullptr;
    keys_->restorePersistentFlag(snap.hasPersistentKey);
    engine_->restoreForkState(*snap.engine);
    if (pager_ != nullptr)
        pager_->restoreForkState(*snap.pager);
    backgroundPids_ = snap.backgroundPids;
    lockEpoch_ = snap.lockEpoch;
    keysDestroyed_ = snap.keysDestroyed;
    stats_ = snap.stats;
    backend_->restoreForkState(snap.defense);
    workingSet_.assign(snap.plaintextWorkingSet.begin(),
                       snap.plaintextWorkingSet.end());

    // A fresh fork target has an empty crypto registry; give it the
    // same providers the snapshotted device had. (Re-forking the same
    // target keeps its existing registrations — the factories already
    // capture this Sentry and this Soc.)
    if (snap.providersRegistered &&
        kernel_.cryptoApi().implementations().empty())
        registerCryptoProviders();
}

double
Sentry::encryptAllMemoryStrawman()
{
    hw::Soc &soc = kernel_.soc();
    const auto bytes = static_cast<double>(soc.dram().size());
    const double seconds =
        bytes / soc.config().cost.fullMemEncryptBytesPerSec;
    soc.clock().advanceSeconds(seconds);
    soc.energy().charge(
        hw::EnergyCategory::CpuAes,
        soc.config().cost.fullMemEncryptJoulesPerByte * bytes);
    return seconds;
}

} // namespace sentry::core
