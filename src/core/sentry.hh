/**
 * @file
 * Sentry: the paper's primary contribution.
 *
 * Sentry protects the memory of sensitive applications and OS
 * subsystems against cold-boot, bus-monitoring, and DMA attacks by
 * keeping cleartext off DRAM whenever the device is screen-locked:
 *
 *   - encrypt-on-lock: when the screen locks, every page of every
 *     sensitive process is encrypted in place with the volatile root
 *     key (which lives only on the SoC); encrypted processes are parked
 *     on the unschedulable queue;
 *   - decrypt-on-unlock: pages are decrypted lazily, on the young-bit
 *     page fault of first touch, except DMA regions (GPU/I-O buffers
 *     are accessed by physical address and cannot fault), which are
 *     decrypted eagerly;
 *   - background mode: processes marked as background keep running
 *     while locked; the LockedCachePager pages them between encrypted
 *     DRAM and decrypted locked-cache frames;
 *   - dm-crypt integration: AES On SoC registers with the kernel
 *     CryptoApi at a higher priority than the generic AES, so block-
 *     level file-system encryption stops leaking crypto state to DRAM.
 *
 * Typical use:
 * @code
 *   hw::Soc soc(hw::PlatformConfig::tegra3());
 *   os::Kernel kernel(soc);
 *   core::Sentry sentry(kernel, core::SentryOptions{});
 *   auto &app = kernel.createProcess("mail");
 *   kernel.addVma(app, "heap", os::VmaType::Heap, 4 * MiB);
 *   sentry.markSensitive(app);
 *   kernel.lockScreen();       // pages encrypted, app parked
 *   kernel.unlockScreen("0000"); // decrypt-on-demand resumes the app
 * @endcode
 */

#ifndef SENTRY_CORE_SENTRY_HH
#define SENTRY_CORE_SENTRY_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "core/defense_backend.hh"
#include "core/key_manager.hh"
#include "core/locked_cache_pager.hh"
#include "core/locked_way_manager.hh"
#include "core/onsoc_allocator.hh"
#include "crypto/aes_on_soc.hh"
#include "os/kernel.hh"

namespace sentry::core
{

/** Where Sentry's page-crypto AES state lives. */
enum class AesPlacement
{
    KernelGeneric, //!< generic kernel AES, state in DRAM (insecure base)
    Iram,          //!< AES On SoC, iRAM variant
    LockedL2,      //!< AES On SoC, locked-cache variant (needs firmware)
};

/** @return printable placement name. */
const char *aesPlacementName(AesPlacement placement);

/** Configuration knobs (defaults follow the paper's Tegra prototype). */
struct SentryOptions
{
    AesPlacement placement = AesPlacement::Iram;
    /** Which defense backend does the page crypto / key handling. The
     *  default routes everything through Sentry's own engine
     *  bit-identically to the pre-backend code. */
    DefenseKind defense = DefenseKind::Sentry;
    /** Enable background execution (requires cache locking). */
    bool backgroundMode = false;
    /** Locked ways dedicated to pager frames when backgroundMode. */
    unsigned pagerWays = 2;
    /** Wait for the freed-page zero thread before locking. */
    bool waitForZeroThread = true;
    /** Clean the L2 after encrypt-on-lock so ciphertext reaches DRAM.
     *  Disabling this is an ablation that leaks plaintext. */
    bool cleanCacheAfterLock = true;
};

/** Operation counters and last-operation timings. */
struct SentryStats
{
    std::uint64_t lockCount = 0;
    std::uint64_t bytesEncryptedOnLock = 0;
    std::uint64_t bytesDecryptedEager = 0;
    std::uint64_t bytesDecryptedOnDemand = 0;
    std::uint64_t faultsServiced = 0;
    /** Pages zero-filled after a deep-lock key scrub (data loss). */
    std::uint64_t bytesWipedAfterDeepLock = 0;
    double lastLockSeconds = 0.0;
    double lastUnlockSeconds = 0.0;

    bool operator==(const SentryStats &) const = default;
};

struct SentrySnapshot;

/** The Sentry manager. */
class Sentry
{
  public:
    /**
     * Wire Sentry into @p kernel: installs the page-fault handler and
     * the screen-lock hooks, carves on-SoC storage, generates the
     * volatile root key, and (optionally) sets up background paging.
     *
     * When the requested placement is LockedL2 but the device's secure
     * world is unreachable (Nexus 4), Sentry degrades to Iram placement
     * and records that in placement().
     */
    Sentry(os::Kernel &kernel, SentryOptions options = {});

    /** Mark @p process for protection ("the settings menu"). */
    void markSensitive(os::Process &process);

    /** Allow @p process to run while locked (must be sensitive). */
    void markBackground(os::Process &process);

    /** @return active placement after availability degradation. */
    AesPlacement placement() const { return placement_; }

    /** @return the key manager. */
    KeyManager &keys() { return *keys_; }

    /** @return the locked-way manager. */
    LockedWayManager &wayManager() { return wayManager_; }

    /** @return the pager, or nullptr when background mode is off. */
    LockedCachePager *pager() { return pager_.get(); }

    /** @return Sentry's page-crypto engine. */
    crypto::SimAesEngine &engine() { return *engine_; }

    /** @return the active defense backend. */
    DefenseBackend &defense() { return *backend_; }
    const DefenseBackend &defense() const { return *backend_; }

    /** @return which defense design is plugged in. */
    DefenseKind defenseKind() const { return options_.defense; }

    /** @return counters. */
    const SentryStats &stats() const { return state_.stats; }

    /** Zero the counters. */
    void resetStats() { state_.stats = SentryStats{}; }

    /**
     * Register "aes-generic" (priority 100) and the AES On SoC
     * implementation (priority 300) with the kernel CryptoApi, so
     * dm-crypt and other consumers pick up the protected cipher.
     */
    void registerCryptoProviders();

    /** Deterministic per-page IV (pid, VA, lock epoch). */
    crypto::Iv pageIv(const os::Process &process, VirtAddr va) const;

    /**
     * The strawman the paper rejects: encrypt ALL of DRAM at lock time
     * using every core plus the accelerator.
     * @return simulated seconds taken (energy is charged to the model).
     */
    double encryptAllMemoryStrawman();

    /** @return true after a deep-lock key scrub destroyed the keys. */
    bool keysDestroyed() const { return state_.keysDestroyed; }

    // Exposed for tests and benches; normally invoked via kernel hooks.
    void onLock();
    void onUnlock();
    void onDeepLock();
    bool handleFault(os::Process &process, VirtAddr va, os::Pte &pte);

    // ---- snapshot / fork -----------------------------------------------

    /**
     * Sentry's own bookkeeping: a fork copies it whole. Outside it: the
     * kernel, its hooks and the crypto providers (wiring); the options
     * and the effective placement (construction-time constants); and
     * the key manager, way manager, engine, backend and pager, each
     * forked through its own state.
     */
    struct State
    {
        OnSocAllocator iramAlloc;
        /** Suballocator over the way backing LockedL2 (engine and
         * crypto-API ciphers). */
        std::optional<OnSocAllocator> engineWayAlloc{};
        std::set<int> backgroundPids{};
        std::uint32_t lockEpoch = 0;
        bool keysDestroyed = false;
        SentryStats stats{};
        /** MemShield plaintext residents, oldest first (pid, page VA). */
        std::deque<std::pair<int, VirtAddr>> workingSet{};

        bool operator==(const State &) const = default;
    };

    /** Capture Sentry's host-side state (see SentrySnapshot). */
    SentrySnapshot snapshot() const;

    /**
     * Restore from @p snap. The target must have been constructed with
     * the same effective placement and background mode (fatal
     * otherwise). Call after Soc/Kernel forkFrom so pager residents can
     * resolve against the forked process list. Re-registers crypto
     * providers when the snapshot had them and this device does not.
     */
    void forkFrom(const SentrySnapshot &snap);

  private:
    void encryptProcess(os::Process &process);
    bool pageIsSkipped(const os::Vma &vma) const;
    void noteWorkingSetPage(os::Process &process, VirtAddr page);
    void evictWorkingSetPage();

    os::Kernel &kernel_;
    SentryOptions options_;
    AesPlacement placement_;

    State state_;
    LockedWayManager wayManager_;
    std::unique_ptr<KeyManager> keys_;
    std::unique_ptr<crypto::SimAesEngine> engine_;
    std::unique_ptr<DefenseBackend> backend_;
    std::unique_ptr<LockedCachePager> pager_;
};

/**
 * Checkpoint of Sentry's mutable state, produced by Sentry::snapshot().
 *
 * Everything here is host-side bookkeeping: key bytes, AES state
 * regions and encrypted pages travel inside the SocSnapshot's COW
 * memory images. Hooks installed into the kernel, and the crypto
 * provider factories, are wiring — forkFrom() re-registers providers
 * on a fresh target instead of copying them.
 */
struct SentrySnapshot
{
    /** The options a target must share (forkFrom() checks them). */
    AesPlacement placement;
    bool backgroundMode;
    DefenseKind defenseKind;

    Sentry::State state;
    std::uint32_t lockedWayMask;
    bool hasPersistentKey;
    crypto::SimAesEngine::State engine;
    std::optional<LockedCachePager::ForkState> pager;
    DefenseForkState defense;
    bool providersRegistered;

    bool operator==(const SentrySnapshot &) const = default;
};

} // namespace sentry::core

#endif // SENTRY_CORE_SENTRY_HH
