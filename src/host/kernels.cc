#include "host/kernels.hh"

#include <atomic>
#include <bit>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "crypto/aes_round.hh"
#include "host/kernels_detail.hh"

namespace sentry::host
{

namespace
{

// ---------------------------------------------------------------------
// Portable tier: T-table AES via the native round engine and the
// word-wise decay blend. It is both the fallback and the reference
// every accelerated tier is verified against.
// ---------------------------------------------------------------------

void
portableEncryptBlock(const crypto::AesKeySchedule &schedule,
                     const std::uint8_t in[16], std::uint8_t out[16])
{
    crypto::NativeAesEnv env(schedule);
    crypto::aesEncryptBlock(env, in, out);
}

void
portableDecryptBlock(const crypto::AesKeySchedule &schedule,
                     const std::uint8_t in[16], std::uint8_t out[16])
{
    crypto::NativeAesEnv env(schedule);
    crypto::aesDecryptBlock(env, in, out);
}

void
portableCbcEncrypt(const crypto::AesKeySchedule &schedule,
                   const std::uint8_t iv[16], std::uint8_t *data,
                   std::size_t len)
{
    crypto::NativeAesEnv env(schedule);
    std::uint8_t chain[16];
    std::memcpy(chain, iv, 16);
    for (std::size_t off = 0; off < len; off += 16) {
        xorBlock16(data + off, chain);
        crypto::aesEncryptBlock(env, data + off, data + off);
        std::memcpy(chain, data + off, 16);
    }
}

void
portableCbcDecrypt(const crypto::AesKeySchedule &schedule,
                   const std::uint8_t iv[16], std::uint8_t *data,
                   std::size_t len)
{
    crypto::NativeAesEnv env(schedule);
    std::uint8_t chain[16];
    std::uint8_t next[16];
    std::memcpy(chain, iv, 16);
    for (std::size_t off = 0; off < len; off += 16) {
        std::memcpy(next, data + off, 16);
        crypto::aesDecryptBlock(env, data + off, data + off);
        xorBlock16(data + off, chain);
        std::memcpy(chain, next, 16);
    }
}

Rng::State
portableDecayPage(std::uint8_t *cells, std::size_t len, Rng::State state,
                  std::uint32_t threshold, std::uint8_t ground)
{
    // All-ones when the low 16-bit lane of @p lanes survives.
    const auto keepMask = [threshold](std::uint64_t lanes) {
        return 0u - static_cast<std::uint32_t>((lanes & 0xffff) < threshold);
    };
    const std::uint32_t groundWord = ground * 0x01010101u;

    Rng rng;
    rng.setState(state);
    std::size_t index = 0;
    // Whole words: a mask blend instead of a per-byte branch, which
    // mispredicts at mid-range survival.
    for (; index + 4 <= len; index += 4) {
        const std::uint64_t lanes = rng.next64();
        std::uint32_t keep = (keepMask(lanes) & 0x000000ffu) |
                             (keepMask(lanes >> 16) & 0x0000ff00u) |
                             (keepMask(lanes >> 32) & 0x00ff0000u) |
                             (keepMask(lanes >> 48) & 0xff000000u);
        if constexpr (std::endian::native == std::endian::big)
            keep = __builtin_bswap32(keep);
        std::uint32_t word;
        std::memcpy(&word, cells + index, sizeof word);
        word = (word & keep) | (groundWord & ~keep);
        std::memcpy(cells + index, &word, sizeof word);
    }
    // A partial tail word takes its own draw, as a whole word would.
    if (index < len) {
        std::uint64_t lanes = rng.next64();
        for (; index < len; ++index) {
            if (static_cast<std::uint32_t>(lanes & 0xffff) >= threshold)
                cells[index] = ground;
            lanes >>= 16;
        }
    }
    return rng.state();
}

constexpr AesKernel PORTABLE_AES = {
    "portable",        portableEncryptBlock, portableDecryptBlock,
    portableCbcEncrypt, portableCbcDecrypt,
};

constexpr BytesKernel PORTABLE_BYTES = {"portable", portableDecayPage};

// ---------------------------------------------------------------------
// Verification on first use: an accelerated tier is adopted only after
// it reproduces the portable tier bit for bit. Mismatch means a broken
// kernel (or a miswired CPU probe) and silently costs speed, never
// correctness.
// ---------------------------------------------------------------------

/** Deterministic filler (one SplitMix64 step per byte) for
 * verification buffers. */
void
fillDeterministic(std::uint8_t *buf, std::size_t len, std::uint64_t seed)
{
    for (std::size_t i = 0; i < len; ++i)
        buf[i] = static_cast<std::uint8_t>(splitmix64(seed));
}

bool
verifyAesKernel(const AesKernel &candidate)
{
    // FIPS-197 appendix C known answers, one per key size.
    static const struct
    {
        std::size_t keyBytes;
        const char *cipher;
    } KATS[] = {
        {16, "69c4e0d86a7b0430d8cdb78070b4c55a"},
        {24, "dda97ca4864cdfe06eaf70a0ec0d7191"},
        {32, "8ea2b7ca516745bfeafc49904b496089"},
    };
    const std::uint8_t plain[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55,
                                    0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb,
                                    0xcc, 0xdd, 0xee, 0xff};

    for (const auto &kat : KATS) {
        std::uint8_t key[32];
        for (std::size_t i = 0; i < kat.keyBytes; ++i)
            key[i] = static_cast<std::uint8_t>(i);
        const crypto::AesKeySchedule schedule({key, kat.keyBytes});

        std::uint8_t want[16], got[16];
        for (std::size_t i = 0; i < 16; ++i) {
            const char hi = kat.cipher[2 * i];
            const char lo = kat.cipher[2 * i + 1];
            auto nib = [](char c) {
                return c <= '9' ? c - '0' : c - 'a' + 10;
            };
            want[i] = static_cast<std::uint8_t>((nib(hi) << 4) | nib(lo));
        }
        candidate.encryptBlock(schedule, plain, got);
        if (std::memcmp(got, want, 16) != 0)
            return false;
        candidate.decryptBlock(schedule, want, got);
        if (std::memcmp(got, plain, 16) != 0)
            return false;

        // CBC round trips at lengths that exercise the wide lanes, the
        // scalar tails, and single-block calls, cross-checked against
        // the portable tier on pseudorandom data.
        for (const std::size_t len : {std::size_t{16}, std::size_t{80},
                                      std::size_t{512}, std::size_t{2048}}) {
            std::vector<std::uint8_t> a(len), b(len);
            std::uint8_t iv[16];
            fillDeterministic(a.data(), len, 0xc0ffee00 + len);
            fillDeterministic(iv, 16, len);
            b = a;
            PORTABLE_AES.cbcEncrypt(schedule, iv, a.data(), len);
            candidate.cbcEncrypt(schedule, iv, b.data(), len);
            if (a != b)
                return false;
            b = a;
            PORTABLE_AES.cbcDecrypt(schedule, iv, a.data(), len);
            candidate.cbcDecrypt(schedule, iv, b.data(), len);
            if (a != b)
                return false;
        }
    }
    return true;
}

bool
verifyBytesKernel(const BytesKernel &candidate)
{
    // decayPage on a full page at the edge thresholds (nothing kept,
    // the signed-compare boundary, everything but lane 0xffff kept),
    // toward both grounds: same bytes and same final state.
    Rng::State state;
    fillDeterministic(reinterpret_cast<std::uint8_t *>(state.data()),
                      sizeof state, 0xdecade);
    std::vector<std::uint8_t> page(PAGE_SIZE), want(PAGE_SIZE);
    fillDeterministic(page.data(), page.size(), 0x7e11);
    for (const std::uint32_t threshold : {0u, 1u, 32767u, 32768u, 65535u}) {
        for (const std::uint8_t ground : {0x00, 0xff}) {
            want = page;
            std::vector<std::uint8_t> got = page;
            if (candidate.decayPage(got.data(), got.size(), state, threshold,
                                    ground) !=
                    PORTABLE_BYTES.decayPage(want.data(), want.size(), state,
                                             threshold, ground) ||
                got != want)
                return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// Registry assembly.
// ---------------------------------------------------------------------

Kernels
buildKernels()
{
    Kernels k{PORTABLE_AES, PORTABLE_BYTES};
    if (forcedPortable())
        return k;

    const CpuFeatures &features = cpuFeatures();
    AesKernel aes;
    if ((detail::x86AesKernel(aes, features) ||
         detail::armAesKernel(aes, features)) &&
        verifyAesKernel(aes)) {
        k.aes = aes;
    }
    BytesKernel bytes;
    if (detail::x86BytesKernel(bytes, features) &&
        verifyBytesKernel(bytes)) {
        k.bytes = bytes;
    }
    return k;
}

const Kernels &
defaultKernels()
{
    static const Kernels k = buildKernels();
    return k;
}

std::atomic<const Kernels *> testOverride{nullptr};

} // namespace

const Kernels &
kernels()
{
    const Kernels *override = testOverride.load(std::memory_order_acquire);
    return override != nullptr ? *override : defaultKernels();
}

const Kernels &
portableKernels()
{
    static const Kernels k{PORTABLE_AES, PORTABLE_BYTES};
    return k;
}

void
setActiveKernelsForTest(const Kernels *kernels)
{
    testOverride.store(kernels, std::memory_order_release);
}

std::string
hostInfoString()
{
    const Kernels &k = kernels();
    std::string out = "host cpu:       " + cpuFeatures().summary();
    if (forcedPortable())
        out += " (SENTRY_FORCE_PORTABLE)";
    out += "\naes kernel:     ";
    out += k.aes.tier;
    out += "  (block + CBC: Sentry page crypto, dm-crypt, MemShield "
           "engine)";
    out += "\nbytes kernel:   ";
    out += k.bytes.tier;
    out += "  (power-loss decay)";
    out += "\ntrace emission: per event (subscribers dispatch inline, "
           "counters fold at the emission site)";
    out += "\n";
    return out;
}

std::string
hostFeaturesKey()
{
    const Kernels &k = kernels();
    std::string out = cpuFeatures().summary();
    if (forcedPortable())
        out += " forced-portable";
    out += " / aes=";
    out += k.aes.tier;
    out += " bytes=";
    out += k.bytes.tier;
    return out;
}

} // namespace sentry::host
