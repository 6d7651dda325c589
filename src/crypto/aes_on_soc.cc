#include "crypto/aes_on_soc.hh"

#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "crypto/aes_round.hh"
#include "host/kernels.hh"

namespace sentry::crypto
{

void
HostAesCbc::cbcEncrypt(const Iv &iv, std::span<std::uint8_t> data) const
{
    if (data.size() % AES_BLOCK_SIZE != 0)
        fatal("cbcEncrypt requires a multiple of 16 bytes");
    host::kernels().aes.cbcEncrypt(schedule_, iv.data(), data.data(),
                                   data.size());
}

void
HostAesCbc::cbcDecrypt(const Iv &iv, std::span<std::uint8_t> data) const
{
    if (data.size() % AES_BLOCK_SIZE != 0)
        fatal("cbcDecrypt requires a multiple of 16 bytes");
    host::kernels().aes.cbcDecrypt(schedule_, iv.data(), data.data(),
                                   data.size());
}

const char *
statePlacementName(StatePlacement placement)
{
    switch (placement) {
      case StatePlacement::Dram:
        return "dram";
      case StatePlacement::Iram:
        return "iram";
      case StatePlacement::LockedL2:
        return "locked-l2";
      default:
        return "?";
    }
}

/**
 * Audited environment: every lookup is one simulated memory access at
 * the component's true physical location.
 */
class SimAesEngine::SimEnv
{
  public:
    explicit SimEnv(const SimAesEngine &engine)
        : mem_(engine.soc_.memory()), engine_(engine)
    {}

    std::uint32_t
    te(unsigned t, std::uint8_t i) const
    {
        return mem_.read32(engine_.teOff_ + (t * 256 + i) * 4);
    }

    std::uint32_t
    td(unsigned t, std::uint8_t i) const
    {
        return mem_.read32(engine_.tdOff_ + (t * 256 + i) * 4);
    }

    std::uint8_t
    sbox(std::uint8_t i) const
    {
        std::uint8_t b;
        mem_.read(engine_.sboxOff_ + i, &b, 1);
        return b;
    }

    std::uint8_t
    invSbox(std::uint8_t i) const
    {
        std::uint8_t b;
        mem_.read(engine_.invSboxOff_ + i, &b, 1);
        return b;
    }

    std::uint32_t
    encKey(unsigned i) const
    {
        if (engine_.secrets_ == SecretResidency::RegistersOnly)
            return engine_.state_.schedule.encWords()[i]; // register read
        return mem_.read32(engine_.encKeysOff_ + 4 * i);
    }

    std::uint32_t
    decKey(unsigned i) const
    {
        if (engine_.secrets_ == SecretResidency::RegistersOnly)
            return engine_.state_.schedule.decWords()[i]; // register read
        return mem_.read32(engine_.decKeysOff_ + 4 * i);
    }

    unsigned rounds() const { return engine_.state_.schedule.rounds(); }

  private:
    hw::MemorySystem &mem_;
    const SimAesEngine &engine_;
};

SimAesEngine::SimAesEngine(hw::Soc &soc, PhysAddr state_base,
                           std::span<const std::uint8_t> key,
                           StatePlacement placement, bool kernel_path,
                           SecretResidency secrets)
    : soc_(soc), stateBase_(state_base), placement_(placement),
      kernelPath_(kernel_path), secrets_(secrets),
      layout_(AesStateLayout::forKeyBytes(
          static_cast<unsigned>(key.size()))),
      state_{AesKeySchedule(key)}
{
    inputOff_ = stateBase_ + layout_.find("Input block").offset;
    keyOff_ = stateBase_ + layout_.find("Key").offset;
    encKeysOff_ = stateBase_ + layout_.find("Enc round keys").offset;
    decKeysOff_ = stateBase_ + layout_.find("Dec round keys").offset;
    teOff_ = stateBase_ + layout_.find("Enc round tables (Te0-3)").offset;
    tdOff_ = stateBase_ + layout_.find("Dec round tables (Td0-3)").offset;
    sboxOff_ = stateBase_ + layout_.find("S-box").offset;
    invSboxOff_ = stateBase_ + layout_.find("Inverse S-box").offset;
    rconOff_ = stateBase_ + layout_.find("Rcon").offset;
    ivecOff_ = stateBase_ + layout_.find("CBC block/ivec").offset;

    materialiseState(key);
}

void
SimAesEngine::materialiseState(std::span<const std::uint8_t> key)
{
    hw::MemorySystem &mem = soc_.memory();
    const AesTables &tables = aesTables();

    auto writeWords = [&](PhysAddr base, std::span<const std::uint32_t> w) {
        for (std::size_t i = 0; i < w.size(); ++i)
            mem.write32(base + 4 * i, w[i]);
    };

    // RegistersOnly (TRESOR-style): the key and schedule exist only in
    // the host-side mirror modelling CPU registers; nothing secret is
    // ever written to the memory system.
    if (secrets_ == SecretResidency::OnRegion) {
        mem.write(keyOff_, key.data(), key.size());
        writeWords(encKeysOff_, state_.schedule.encWords());
        writeWords(decKeysOff_, state_.schedule.decWords());
    }

    for (unsigned t = 0; t < 4; ++t) {
        writeWords(teOff_ + t * 256 * 4, {tables.te[t], 256});
        writeWords(tdOff_ + t * 256 * 4, {tables.td[t], 256});
    }
    mem.write(sboxOff_, tables.sbox, 256);
    mem.write(invSboxOff_, tables.invSbox, 256);
    writeWords(rconOff_, {tables.rcon, AES_RCON_WORDS});
}

void
SimAesEngine::touchRegistersWithSecrets() const
{
    // Model what real crypto code does: live round-key words and the
    // working block sit in CPU registers during computation.
    const auto words = state_.schedule.encWords();
    soc_.cpu().loadRegisters(words.subspan(0, std::min<std::size_t>(
                                                  8, words.size())));
}

void
SimAesEngine::encryptBlock(const std::uint8_t in[16],
                           std::uint8_t out[16]) const
{
    cryptBlock(in, out, /*encrypt=*/true);
}

void
SimAesEngine::decryptBlock(const std::uint8_t in[16],
                           std::uint8_t out[16]) const
{
    cryptBlock(in, out, /*encrypt=*/false);
}

void
SimAesEngine::cryptBlock(const std::uint8_t in[16], std::uint8_t out[16],
                         bool encrypt) const
{
    if (state_.scrubbed)
        panic("SimAesEngine used after scrub()");
    hw::MemorySystem &mem = soc_.memory();

    touchRegistersWithSecrets();
    const auto runCipher = [&] {
        mem.write(inputOff_, in, AES_BLOCK_SIZE);
        std::uint8_t block[AES_BLOCK_SIZE];
        mem.read(inputOff_, block, AES_BLOCK_SIZE);
        SimEnv env(*this);
        if (encrypt)
            aesEncryptBlock(env, block, out);
        else
            aesDecryptBlock(env, block, out);
    };
    if (onSoc()) {
        hw::OnSocIrqGuard guard(soc_.cpu());
        runCipher();
    } else {
        runCipher();
        soc_.cpu().pollPreemption();
    }
}

void
SimAesEngine::chargeBulk(std::size_t bytes, unsigned cores)
{
    const hw::CpuCost &cost = soc_.config().cost;
    double cpb = kernelPath_ ? cost.aesCyclesPerByteKernel
                             : cost.aesCyclesPerByteUser;
    if (onSoc())
        cpb *= cost.aesOnSocFactor;
    soc_.clock().advance(static_cast<Cycles>(
        cpb * static_cast<double>(bytes) / cores));

    const hw::EnergyParams &ep = soc_.energy().params();
    double perByte = ep.cpuAesPerByte;
    if (kernelPath_)
        perByte += ep.kernelAesExtraPerByte;
    soc_.energy().charge(hw::EnergyCategory::CpuAes,
                         perByte * static_cast<double>(bytes));
    state_.bytesProcessed += bytes;
}

namespace
{
/** Interrupts are masked for at most one chunk of crypto at a time
 *  (the paper's ~160 us irq-off window on the Tegra 3). */
constexpr std::size_t GUARD_CHUNK = 2 * KiB;
} // namespace

void
SimAesEngine::cbcEncrypt(const Iv &iv, std::span<std::uint8_t> data,
                         unsigned cores)
{
    if (state_.scrubbed)
        panic("SimAesEngine used after scrub()");
    if (data.size() % AES_BLOCK_SIZE != 0)
        fatal("cbcEncrypt requires a multiple of 16 bytes");
    if (cores == 0)
        fatal("cbcEncrypt needs at least one core");
    touchRegistersWithSecrets();
    // The CBC chaining block is public state kept in the region.
    soc_.memory().write(ivecOff_, iv.data(), iv.size());

    const host::AesKernel &aes = host::kernels().aes;
    Iv chain = iv;
    std::size_t off = 0;
    while (off < data.size()) {
        const std::size_t n =
            std::min(GUARD_CHUNK, data.size() - off);
        const auto chunk = data.subspan(off, n);
        if (onSoc()) {
            hw::OnSocIrqGuard guard(soc_.cpu());
            aes.cbcEncrypt(state_.schedule, chain.data(), chunk.data(), n);
            chargeBulk(n, cores);
        } else {
            aes.cbcEncrypt(state_.schedule, chain.data(), chunk.data(), n);
            chargeBulk(n, cores);
            soc_.cpu().pollPreemption();
        }
        std::memcpy(chain.data(), chunk.data() + n - AES_BLOCK_SIZE,
                    AES_BLOCK_SIZE);
        off += n;
    }
}

void
SimAesEngine::cbcDecrypt(const Iv &iv, std::span<std::uint8_t> data)
{
    if (state_.scrubbed)
        panic("SimAesEngine used after scrub()");
    if (data.size() % AES_BLOCK_SIZE != 0)
        fatal("cbcDecrypt requires a multiple of 16 bytes");
    touchRegistersWithSecrets();
    soc_.memory().write(ivecOff_, iv.data(), iv.size());

    const host::AesKernel &aes = host::kernels().aes;
    Iv chain = iv;
    Iv nextChain;
    std::size_t off = 0;
    while (off < data.size()) {
        const std::size_t n =
            std::min(GUARD_CHUNK, data.size() - off);
        const auto chunk = data.subspan(off, n);
        // Capture the chaining ciphertext before decrypting in place.
        std::memcpy(nextChain.data(),
                    chunk.data() + n - AES_BLOCK_SIZE, AES_BLOCK_SIZE);
        if (onSoc()) {
            hw::OnSocIrqGuard guard(soc_.cpu());
            aes.cbcDecrypt(state_.schedule, chain.data(), chunk.data(), n);
            chargeBulk(n, 1);
        } else {
            aes.cbcDecrypt(state_.schedule, chain.data(), chunk.data(), n);
            chargeBulk(n, 1);
            soc_.cpu().pollPreemption();
        }
        chain = nextChain;
        off += n;
    }
}

void
SimAesEngine::cbcEncryptPhys(PhysAddr addr, std::size_t len, const Iv &iv)
{
    if (len % AES_BLOCK_SIZE != 0)
        fatal("cbcEncryptPhys requires a multiple of 16 bytes");
    std::vector<std::uint8_t> staging(len);
    soc_.memory().read(addr, staging.data(), len);
    cbcEncrypt(iv, staging);
    soc_.memory().write(addr, staging.data(), len);
}

void
SimAesEngine::cbcDecryptPhys(PhysAddr addr, std::size_t len, const Iv &iv)
{
    if (len % AES_BLOCK_SIZE != 0)
        fatal("cbcDecryptPhys requires a multiple of 16 bytes");
    std::vector<std::uint8_t> staging(len);
    soc_.memory().read(addr, staging.data(), len);
    cbcDecrypt(iv, staging);
    soc_.memory().write(addr, staging.data(), len);
}

void
SimAesEngine::scrub()
{
    // Paper protocol: write 0xFF over all sensitive data, then drop the
    // host mirror too.
    hw::MemorySystem &mem = soc_.memory();
    for (const auto &c : layout_.components()) {
        if (c.sensitivity != Sensitivity::Public)
            mem.fill(stateBase_ + c.offset, 0xff, c.bytes);
    }
    state_.schedule.scrub();
    state_.scrubbed = true;
}

} // namespace sentry::crypto
