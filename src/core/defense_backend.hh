/**
 * @file
 * Pluggable defense backends: the Sentry design vs. its two published
 * competitors, run against identical attack schedules by the fleet.
 *
 * A DefenseBackend owns the page-crypto mechanism and the key-handling
 * policy of one memory-protection design:
 *
 *   - sentry    — the paper's design: AES On SoC with the volatile root
 *                 key, state in iRAM or a locked L2 way. The default;
 *                 all existing Sentry behaviour routes through it
 *                 bit-identically.
 *   - amnesia   — "Security Through Amnesia": the master key is rekeyed
 *                 into a working key pinned on the SoC (iRAM via
 *                 PinnedMemory) and the cipher runs register-only, so no
 *                 long-lived key schedule ever sits in DRAM. Its lookup
 *                 tables do live in DRAM, which is exactly the access-
 *                 pattern surface the bus monitor and the cache attacks
 *                 exploit.
 *   - memshield — accelerator-assisted full-page encryption: guest
 *                 pages are ciphertext-at-rest in DRAM, decrypted by
 *                 the GPU-like hw::MemCryptoEngine into a small
 *                 plaintext working set. The key schedule lives in
 *                 engine registers. No row partition and no hardened
 *                 TrustZone service ride along, so Rowhammer and the
 *                 TZ mailbox side channel remain open.
 *
 * Each backend also states its *claimed* threat matrix (defeats()); the
 * fleet runner compares the claim against the observed attack outcome:
 * a breach of a claimed-defeated threat fails the device, a breach of a
 * claimed-vulnerable threat is recorded as an expected hit.
 */

#ifndef SENTRY_CORE_DEFENSE_BACKEND_HH
#define SENTRY_CORE_DEFENSE_BACKEND_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "core/key_manager.hh"
#include "core/onsoc_allocator.hh"
#include "crypto/aes_on_soc.hh"

namespace sentry::os
{
class Kernel;
}

namespace sentry::core
{

/** The selectable defense designs. */
enum class DefenseKind
{
    Sentry,    //!< the paper's AES-On-SoC design (default)
    Amnesia,   //!< register-only cipher, working key pinned on SoC
    MemShield, //!< GPU-engine full-page encryption, working-set decrypt
};

/** Number of DefenseKind values (for iteration and fuzz drawing). */
inline constexpr unsigned DEFENSE_KIND_COUNT = 3;

/** @return printable backend name ("sentry" / "amnesia" / "memshield"). */
const char *defenseKindName(DefenseKind kind);

/** Parse a backend name; nullopt when unknown. */
std::optional<DefenseKind> parseDefenseKind(std::string_view name);

/** The seven threats a backend is scored against; fleet::ATTACK_VERBS
 * names the attack verbs that exercise each. */
enum class Threat
{
    ColdBoot, //!< the cold-boot family (reflash / os_reboot / 2s_reset)
    BusMonitor,
    Dma,
    PrimeProbe,
    EvictReload,
    Rowhammer,
    TzSideChannel,
};

/** Simulated cost ledger a backend accrues beyond baseline Sentry. */
struct DefenseCosts
{
    std::uint64_t rekeys = 0;    //!< Amnesia lock-epoch rekey events
    std::uint64_t evictions = 0; //!< MemShield working-set re-encrypts
    double extraSeconds = 0.0;   //!< simulated time charged by the backend
    double extraJoules = 0.0;    //!< simulated energy charged by the backend

    bool operator==(const DefenseCosts &) const = default;
};

/**
 * Derive a backend working key from the master volatile root key.
 * Pure function (PBKDF2-HMAC-SHA256 over the master with the backend
 * label as salt) so the KAT tests can pin it.
 */
std::array<std::uint8_t, 16> defenseWorkingKey(const RootKey &master,
                                               std::string_view label);

/** The Amnesia working-key derivation (label "amnesia-working-key"). */
std::array<std::uint8_t, 16> amnesiaWorkingKey(const RootKey &master);

/** Backend state for snapshot/fork (rides inside SentrySnapshot). */
struct DefenseForkState
{
    /** Backend-owned engine state; absent for the Sentry backend (its
     * engine forks through SentrySnapshot::engine). */
    std::optional<crypto::SimAesEngine::State> engine;
    /** Amnesia's working key, derived once from the template's master
     * and rewritten at every lock epoch; absent for other backends. */
    std::optional<std::array<std::uint8_t, 16>> workingKey;
    DefenseCosts costs;

    bool operator==(const DefenseForkState &) const = default;
};

/** One memory-protection design, pluggable under core::Sentry. */
class DefenseBackend
{
  public:
    virtual ~DefenseBackend() = default;

    /** @return which design this is. */
    virtual DefenseKind kind() const = 0;

    /** @return the design's claimed verdict for @p threat. */
    virtual bool defeats(Threat threat) const = 0;

    /** Encrypt one page in place in simulated physical memory. */
    virtual void encryptPage(PhysAddr frame, const crypto::Iv &iv) = 0;

    /** Decrypt one page in place in simulated physical memory. */
    virtual void decryptPage(PhysAddr frame, const crypto::Iv &iv) = 0;

    /** Engine the LockedCachePager uses for background paging; always
     * interoperable with encryptPage()/decryptPage(). */
    virtual crypto::SimAesEngine &pagerCipher() = 0;

    /**
     * The engine whose AES state sits in DRAM and therefore leaks its
     * access pattern to the bus monitor and the cache attacks; nullptr
     * when the design keeps all cipher state on the SoC.
     */
    virtual crypto::SimAesEngine *dramStateEngine() { return nullptr; }

    /** Max plaintext pages resident while unlocked; 0 = unbounded
     * (only MemShield bounds its working set). */
    virtual std::size_t plaintextWorkingSetCap() const { return 0; }

    /** Lock-epoch hook (Amnesia rekeys its working key here). */
    virtual void onLockEpoch(std::uint32_t epoch) { (void)epoch; }

    /** Deep-lock hook: destroy backend-held key material. */
    virtual void scrubSecrets() {}

    /** @return the accrued cost ledger. */
    DefenseCosts &costs() { return costs_; }
    const DefenseCosts &costs() const { return costs_; }

    /** Snapshot/fork: the costs, and a backend's own engine and key. */
    virtual DefenseForkState forkState() const { return {{}, {}, costs_}; }
    virtual void restoreForkState(const DefenseForkState &fs)
    {
        costs_ = fs.costs;
    }

  protected:
    DefenseCosts costs_;
};

/**
 * Construct the backend for @p kind.
 *
 * @param kind          which design
 * @param kernel        the OS (DRAM frames, crypto registry, Soc)
 * @param sentry_engine Sentry's own AES-On-SoC engine (the Sentry
 *                      backend wraps it; others ignore it)
 * @param master        the volatile root key working keys derive from
 * @param iram_alloc    Sentry's iRAM allocator (for on-SoC state)
 */
std::unique_ptr<DefenseBackend>
makeDefenseBackend(DefenseKind kind, os::Kernel &kernel,
                   crypto::SimAesEngine &sentry_engine,
                   const RootKey &master, OnSocAllocator &iram_alloc);

} // namespace sentry::core

#endif // SENTRY_CORE_DEFENSE_BACKEND_HH
