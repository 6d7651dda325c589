/**
 * @file
 * AES engines whose state lives in *simulated physical memory* — the
 * heart of both the paper's baseline and its contribution:
 *
 *   - StatePlacement::Dram   => the "generic AES" baseline: round keys
 *     and lookup tables are materialised in DRAM pages, table lookups
 *     miss through the L2 onto the external bus (feeding the bus-monitor
 *     side channel), and the key schedule sits in DRAM for a cold-boot
 *     or DMA attacker to harvest;
 *   - StatePlacement::Iram / LockedL2  => AES On SoC (paper section 6):
 *     all secret and access-protected state is materialised in on-SoC
 *     storage, every sensitive computation runs with interrupts masked
 *     (OnSocIrqGuard), registers are scrubbed afterwards, and no
 *     procedure passes sensitive arguments via a DRAM stack.
 *
 * Two operating granularities:
 *   - the BlockCipher interface runs *audited*: every table lookup and
 *     round-key fetch is an individual simulated memory access, so the
 *     access trace (and its visibility on the external bus) is exact;
 *   - the bulk cbc{En,De}crypt paths process whole buffers/pages with
 *     costs charged through the platform cost model — the state stays
 *     resident in its simulated region, but per-lookup traffic is not
 *     replayed (DESIGN.md section 4, decision 1).
 */

#ifndef SENTRY_CRYPTO_AES_ON_SOC_HH
#define SENTRY_CRYPTO_AES_ON_SOC_HH

#include <cstdint>
#include <span>

#include "crypto/aes.hh"
#include "crypto/aes_state.hh"
#include "crypto/modes.hh"
#include "hw/soc.hh"

namespace sentry::crypto
{

/** Where an engine's AES state physically lives. */
enum class StatePlacement
{
    Dram,     //!< generic AES: state in ordinary DRAM pages
    Iram,     //!< AES On SoC, iRAM variant
    LockedL2, //!< AES On SoC, locked-cache-way variant
};

/** @return printable placement name. */
const char *statePlacementName(StatePlacement placement);

/**
 * Where the *secret* state (key + round keys) lives relative to the
 * state region.
 *
 * OnRegion is the normal case. RegistersOnly models the TRESOR/AESSE
 * family of x86 defences the paper's section 9 discusses: the key
 * schedule is confined to CPU registers (never materialised in memory),
 * but the access-protected lookup tables still live wherever the state
 * region is — which is exactly why those schemes stay vulnerable to the
 * bus-monitoring side channel even though they defeat cold boot.
 */
enum class SecretResidency
{
    OnRegion,
    RegistersOnly,
};

/**
 * A host-side AES-CBC cipher over a key schedule, with no simulated
 * machine behind it: the active host kernel tier's bulk CBC, which is
 * also what SimAesEngine's bulk paths run. Ciphertext is bit-identical
 * to the engine's bulk path under the same schedule.
 */
class HostAesCbc
{
  public:
    explicit HostAesCbc(const AesKeySchedule &schedule)
        : schedule_(schedule)
    {}

    /** CBC-encrypt @p data (multiple of 16 bytes) in place. */
    void cbcEncrypt(const Iv &iv, std::span<std::uint8_t> data) const;

    /** CBC-decrypt @p data in place. */
    void cbcDecrypt(const Iv &iv, std::span<std::uint8_t> data) const;

  private:
    AesKeySchedule schedule_;
};

/**
 * An AES-CBC engine bound to a physical state region inside the
 * simulated machine.
 */
class SimAesEngine : public BlockCipher
{
  public:
    /**
     * @param soc         the device
     * @param state_base  physical base of the state region; must provide
     *                    AesStateLayout::forKeyBytes(key).totalBytes()
     * @param key         16/24/32-byte AES key
     * @param placement   what kind of memory state_base points into
     * @param kernel_path charge kernel Crypto-API costs instead of
     *                    user-mode costs on the bulk paths
     */
    SimAesEngine(hw::Soc &soc, PhysAddr state_base,
                 std::span<const std::uint8_t> key, StatePlacement placement,
                 bool kernel_path = false,
                 SecretResidency secrets = SecretResidency::OnRegion);

    /** Audited single-block encrypt: exact per-lookup memory traffic.
     * Many blocks go through the modes in modes.hh, one call each. */
    void encryptBlock(const std::uint8_t in[16],
                      std::uint8_t out[16]) const override;

    /** Audited single-block decrypt. */
    void decryptBlock(const std::uint8_t in[16],
                      std::uint8_t out[16]) const override;

    /**
     * Bulk CBC encrypt of a host buffer (e.g. a dm-crypt sector), its
     * time charge divided by @p cores: the work spreads over that many
     * simulated cores (dm-crypt's kcryptd workers). Energy is not
     * divided; the Joules are spent regardless of spreading.
     */
    void cbcEncrypt(const Iv &iv, std::span<std::uint8_t> data,
                    unsigned cores = 1);

    /** Bulk CBC decrypt of a host buffer. */
    void cbcDecrypt(const Iv &iv, std::span<std::uint8_t> data);

    /**
     * Bulk CBC encrypt of simulated physical memory, in place. The data
     * moves through the regular cacheable path, so cache and bus effects
     * are real; AES compute cost comes from the platform cost model.
     */
    void cbcEncryptPhys(PhysAddr addr, std::size_t len, const Iv &iv);

    /** Bulk CBC decrypt of simulated physical memory, in place. */
    void cbcDecryptPhys(PhysAddr addr, std::size_t len, const Iv &iv);

    /** @return the state layout (component offsets inside the region). */
    const AesStateLayout &layout() const { return layout_; }

    /** @return physical base of the state region. */
    PhysAddr stateBase() const { return stateBase_; }

    /** @return where the state lives. */
    StatePlacement placement() const { return placement_; }

    /** @return total plaintext+ciphertext bytes processed so far. */
    std::uint64_t bytesProcessed() const { return state_.bytesProcessed; }

    /**
     * Erase all sensitive state from the region (the paper's "write
     * 0xFF in all sensitive data" scrub) and from the host-side
     * schedule mirror.
     */
    void scrub();

    /** @return the device this engine's state lives on. */
    hw::Soc &soc() const { return soc_; }

    /**
     * The engine's host-side simulated state: a fork copies it whole.
     * The state region's *contents* travel in the SocSnapshot's COW
     * memory images. Outside the struct: the Soc (wiring) and the
     * placement, kernel path, secret residency, layout and component
     * offsets (construction-time constants).
     */
    struct State
    {
        AesKeySchedule schedule; //!< host mirror (CPU registers/L1)
        std::uint64_t bytesProcessed = 0;
        bool scrubbed = false;

        bool operator==(const State &) const = default;
    };

    State forkState() const { return state_; }
    void restoreForkState(const State &state) { state_ = state; }

  private:
    class SimEnv; // audited state-access environment

    bool onSoc() const { return placement_ != StatePlacement::Dram; }
    /** The audited block body behind encryptBlock()/decryptBlock(). */
    void cryptBlock(const std::uint8_t in[16], std::uint8_t out[16],
                    bool encrypt) const;
    void materialiseState(std::span<const std::uint8_t> key);
    void chargeBulk(std::size_t bytes, unsigned cores);
    void touchRegistersWithSecrets() const;

    hw::Soc &soc_;
    PhysAddr stateBase_;
    StatePlacement placement_;
    bool kernelPath_;
    SecretResidency secrets_ = SecretResidency::OnRegion;
    AesStateLayout layout_;
    State state_;

    // Component offsets resolved once for the audited path.
    PhysAddr inputOff_, keyOff_, encKeysOff_, decKeysOff_, teOff_, tdOff_,
        sboxOff_, invSboxOff_, rconOff_, ivecOff_;
};

} // namespace sentry::crypto

#endif // SENTRY_CRYPTO_AES_ON_SOC_HH
