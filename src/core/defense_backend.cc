#include "core/defense_backend.hh"

#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "core/pinned_memory.hh"
#include "crypto/kdf.hh"
#include "hw/soc.hh"
#include "os/kernel.hh"

namespace sentry::core
{

const char *
defenseKindName(DefenseKind kind)
{
    switch (kind) {
      case DefenseKind::Sentry:
        return "sentry";
      case DefenseKind::Amnesia:
        return "amnesia";
      case DefenseKind::MemShield:
        return "memshield";
      default:
        return "?";
    }
}

std::optional<DefenseKind>
parseDefenseKind(std::string_view name)
{
    if (name == "sentry")
        return DefenseKind::Sentry;
    if (name == "amnesia")
        return DefenseKind::Amnesia;
    if (name == "memshield")
        return DefenseKind::MemShield;
    return std::nullopt;
}

std::array<std::uint8_t, 16>
defenseWorkingKey(const RootKey &master, std::string_view label)
{
    const auto *salt =
        reinterpret_cast<const std::uint8_t *>(label.data());
    const std::vector<std::uint8_t> derived = crypto::pbkdf2Sha256(
        std::span<const std::uint8_t>(master.data(), master.size()),
        std::span<const std::uint8_t>(salt, label.size()),
        /*iterations=*/1000, /*dkLen=*/16);
    std::array<std::uint8_t, 16> key{};
    std::memcpy(key.data(), derived.data(), key.size());
    return key;
}

std::array<std::uint8_t, 16>
amnesiaWorkingKey(const RootKey &master)
{
    return defenseWorkingKey(master, "amnesia-working-key");
}

namespace
{

/** Allocate DRAM frames to back an engine state region. */
PhysAddr
allocDramState(os::Kernel &kernel, std::size_t bytes)
{
    const std::size_t frames = alignUp(bytes, PAGE_SIZE) / PAGE_SIZE;
    return kernel.allocator().allocContiguous(frames);
}

/** The paper's design, wrapping Sentry's own AES-On-SoC engine. */
class SentryBackend final : public DefenseBackend
{
  public:
    explicit SentryBackend(crypto::SimAesEngine &engine) : engine_(engine)
    {}

    DefenseKind kind() const override { return DefenseKind::Sentry; }

    bool
    defeats(Threat) const override
    {
        // Sentry ships the full bundle: on-SoC key state (cold boot, bus
        // monitor, DMA), lockdown-by-way (cache attacks), the CATT row
        // partition (Rowhammer), and the hardened TZ service.
        return true;
    }

    void
    encryptPage(PhysAddr frame, const crypto::Iv &iv) override
    {
        engine_.cbcEncryptPhys(frame, PAGE_SIZE, iv);
    }

    void
    decryptPage(PhysAddr frame, const crypto::Iv &iv) override
    {
        engine_.cbcDecryptPhys(frame, PAGE_SIZE, iv);
    }

    crypto::SimAesEngine &pagerCipher() override { return engine_; }

  private:
    crypto::SimAesEngine &engine_;
};

/**
 * "Security Through Amnesia": the master key never leaves the SoC and
 * is rekeyed into a working key pinned in iRAM; the cipher runs
 * register-only, so DRAM holds lookup tables but never a key schedule.
 */
class AmnesiaBackend final : public DefenseBackend
{
  public:
    /** Simulated cost of one PBKDF2 rekey of the working key. */
    static constexpr double REKEY_SECONDS = 2e-3;
    static constexpr double REKEY_JOULES = 1.5e-3;

    AmnesiaBackend(os::Kernel &kernel, const RootKey &master)
        : kernel_(kernel), workingKey_(amnesiaWorkingKey(master))
    {
        hw::Soc &soc = kernel_.soc();
        pinned_ = PinnedMemory::create(soc, /*pool_bytes=*/64);
        if (pinned_ == nullptr)
            fatal("amnesia backend needs pin-on-SoC storage");
        keySlot_ = pinned_->alloc(16);
        pinned_->write(keySlot_, 0, workingKey_);

        const auto layout = crypto::AesStateLayout::forKeyBytes(16);
        engine_ = std::make_unique<crypto::SimAesEngine>(
            soc, allocDramState(kernel_, layout.totalBytes()),
            std::span<const std::uint8_t>(workingKey_),
            crypto::StatePlacement::Dram,
            /*kernel_path=*/true, crypto::SecretResidency::RegistersOnly);
    }

    DefenseKind kind() const override { return DefenseKind::Amnesia; }

    bool
    defeats(Threat threat) const override
    {
        // No key material in DRAM defeats image-capture attacks, but the
        // DRAM-resident tables leak the access pattern (bus monitor,
        // cache timing), and nothing addresses Rowhammer or the TZ
        // mailbox.
        return threat == Threat::ColdBoot || threat == Threat::Dma;
    }

    void
    encryptPage(PhysAddr frame, const crypto::Iv &iv) override
    {
        engine_->cbcEncryptPhys(frame, PAGE_SIZE, iv);
    }

    void
    decryptPage(PhysAddr frame, const crypto::Iv &iv) override
    {
        engine_->cbcDecryptPhys(frame, PAGE_SIZE, iv);
    }

    crypto::SimAesEngine &pagerCipher() override { return *engine_; }

    crypto::SimAesEngine *dramStateEngine() override
    {
        return engine_.get();
    }

    void
    onLockEpoch(std::uint32_t) override
    {
        // Rekey: rewrite the pinned slot with the working key and charge
        // the simulated PBKDF2 run. The derivation is deterministic, so
        // the key VALUE is stable across epochs (pages encrypted before
        // this lock stay decryptable): the host derives it once, at
        // construction, and a fork carries the template's key, never
        // one derived from the master the target was constructed with.
        pinned_->write(keySlot_, 0, workingKey_);
        hw::Soc &soc = kernel_.soc();
        soc.clock().advanceSeconds(REKEY_SECONDS);
        soc.energy().charge(hw::EnergyCategory::CpuAes, REKEY_JOULES);
        ++costs_.rekeys;
        costs_.extraSeconds += REKEY_SECONDS;
        costs_.extraJoules += REKEY_JOULES;
    }

    void
    scrubSecrets() override
    {
        engine_->scrub();
        const std::array<std::uint8_t, 16> zero{};
        pinned_->write(keySlot_, 0, zero);
    }

    DefenseForkState
    forkState() const override
    {
        return {engine_->forkState(), workingKey_, costs_};
    }

    void
    restoreForkState(const DefenseForkState &fs) override
    {
        engine_->restoreForkState(fs.engine.value());
        workingKey_ = fs.workingKey.value();
        costs_ = fs.costs;
    }

  private:
    os::Kernel &kernel_;
    std::array<std::uint8_t, 16> workingKey_;
    std::unique_ptr<PinnedMemory> pinned_;
    OnSocRegion keySlot_;
    std::unique_ptr<crypto::SimAesEngine> engine_;
};

/**
 * MemShield: pages cross the memory system in ciphertext; the GPU-like
 * MemCryptoEngine does the crypto with its key schedule in engine
 * registers. Plaintext exists only in the bounded working set that
 * core::Sentry maintains via plaintextWorkingSetCap().
 */
class MemShieldBackend final : public DefenseBackend
{
  public:
    /** Plaintext pages resident at once while unlocked. */
    static constexpr std::size_t WORKING_SET_PAGES = 8;

    MemShieldBackend(os::Kernel &kernel, const RootKey &master,
                     OnSocAllocator &iram_alloc)
        : kernel_(kernel)
    {
        hw::Soc &soc = kernel_.soc();
        const std::array<std::uint8_t, 16> wk =
            defenseWorkingKey(master, "memshield-working-key");
        soc.memCrypto().setKey(wk);

        // Background paging needs a CPU-side cipher over the same key;
        // its state lives in iRAM so nothing secret reaches DRAM.
        const auto layout = crypto::AesStateLayout::forKeyBytes(16);
        pagerEngine_ = std::make_unique<crypto::SimAesEngine>(
            soc, iram_alloc.alloc(layout.totalBytes()).base,
            std::span<const std::uint8_t>(wk), crypto::StatePlacement::Iram,
            /*kernel_path=*/true);
    }

    DefenseKind kind() const override { return DefenseKind::MemShield; }

    bool
    defeats(Threat threat) const override
    {
        // Ciphertext-at-rest with engine-resident keys closes every
        // memory-content and access-pattern channel, but MemShield
        // integrity-checks nothing (Rowhammer) and leaves the TZ
        // mailbox service untouched.
        return threat != Threat::Rowhammer &&
               threat != Threat::TzSideChannel;
    }

    void
    encryptPage(PhysAddr frame, const crypto::Iv &iv) override
    {
        cryptPage(frame, iv, /*encrypt=*/true);
    }

    void
    decryptPage(PhysAddr frame, const crypto::Iv &iv) override
    {
        cryptPage(frame, iv, /*encrypt=*/false);
    }

    crypto::SimAesEngine &pagerCipher() override { return *pagerEngine_; }

    std::size_t
    plaintextWorkingSetCap() const override
    {
        return WORKING_SET_PAGES;
    }

    void
    scrubSecrets() override
    {
        kernel_.soc().memCrypto().clearKey();
        pagerEngine_->scrub();
    }

    DefenseForkState
    forkState() const override
    {
        return {pagerEngine_->forkState(), {}, costs_};
    }

    void
    restoreForkState(const DefenseForkState &fs) override
    {
        pagerEngine_->restoreForkState(fs.engine.value());
        costs_ = fs.costs;
    }

  private:
    void
    cryptPage(PhysAddr frame, const crypto::Iv &iv, bool encrypt)
    {
        hw::Soc &soc = kernel_.soc();
        std::array<std::uint8_t, PAGE_SIZE> buf;
        soc.memory().read(frame, buf.data(), buf.size());
        const hw::MemCryptoStats &st = soc.memCrypto().stats();
        const double s0 = st.secondsCharged;
        const double j0 = st.joulesCharged;
        if (encrypt)
            soc.memCrypto().cbcEncrypt(iv, buf);
        else
            soc.memCrypto().cbcDecrypt(iv, buf);
        costs_.extraSeconds += st.secondsCharged - s0;
        costs_.extraJoules += st.joulesCharged - j0;
        soc.memory().write(frame, buf.data(), buf.size());
    }

    os::Kernel &kernel_;
    std::unique_ptr<crypto::SimAesEngine> pagerEngine_;
};

} // namespace

std::unique_ptr<DefenseBackend>
makeDefenseBackend(DefenseKind kind, os::Kernel &kernel,
                   crypto::SimAesEngine &sentry_engine,
                   const RootKey &master, OnSocAllocator &iram_alloc)
{
    switch (kind) {
      case DefenseKind::Sentry:
        return std::make_unique<SentryBackend>(sentry_engine);
      case DefenseKind::Amnesia:
        return std::make_unique<AmnesiaBackend>(kernel, master);
      case DefenseKind::MemShield:
        return std::make_unique<MemShieldBackend>(kernel, master,
                                                  iram_alloc);
    }
    panic("bad defense kind");
}

} // namespace sentry::core
