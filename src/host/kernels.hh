/**
 * @file
 * The host kernel registry: one dispatch point for every host-side hot
 * path (DESIGN.md section 14).
 *
 * The simulator burns host CPU in three places that have nothing to do
 * with simulated semantics and gain from host instructions: bulk AES
 * over host buffers (dm-crypt's sectors, the MemShield engine,
 * SimAesEngine's bulk CBC paths), remanence decay at every power loss,
 * and cache-line copies in the L2 access path. Each of those but the
 * last calls through a `Kernels` entry selected once at startup (the
 * byte scans of common/bytes.hh have one portable body: no workload
 * gained from an AVX2 tier of theirs):
 *
 *   - feature detection (host/cpu_features.hh) picks the best candidate
 *     tier the machine supports (AES-NI/VAES on x86-64, the ARMv8
 *     crypto extension on aarch64, AVX2 for the decay);
 *   - the candidate is *content-verified on first use*: it must
 *     reproduce the portable tier bit for bit on known-answer vectors
 *     and pseudorandom buffers, or the registry silently falls back to
 *     portable — an accelerated tier can be slower, never different;
 *   - `SENTRY_FORCE_PORTABLE=1` in the environment pins the portable
 *     tier regardless, which is the first switch to flip when triaging
 *     cross-machine drift in bench output.
 *
 * Every kernel is a plain function pointer over plain buffers: tiers
 * differ in host instruction selection only, never in results, so every
 * `sim_*` metric, ciphertext, and replay digest is identical across
 * tiers by construction (and enforced by tests/test_host_kernels.cc).
 */

#ifndef SENTRY_HOST_KERNELS_HH
#define SENTRY_HOST_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/rng.hh"
#include "crypto/aes.hh"
#include "host/cpu_features.hh"

namespace sentry::host
{

/**
 * AES over host memory, parameterised by an expanded key schedule.
 * CBC entry points work in place; @p iv is 16 bytes; lengths are
 * multiples of 16 (checked by the callers' front doors).
 */
struct AesKernel
{
    const char *tier; //!< "portable", "aes-ni", "aes-ni+vaes", "armv8-ce"

    void (*encryptBlock)(const crypto::AesKeySchedule &schedule,
                         const std::uint8_t in[16], std::uint8_t out[16]);
    void (*decryptBlock)(const crypto::AesKeySchedule &schedule,
                         const std::uint8_t in[16], std::uint8_t out[16]);
    void (*cbcEncrypt)(const crypto::AesKeySchedule &schedule,
                       const std::uint8_t iv[16], std::uint8_t *data,
                       std::size_t len);
    void (*cbcDecrypt)(const crypto::AesKeySchedule &schedule,
                       const std::uint8_t iv[16], std::uint8_t *data,
                       std::size_t len);
};

/** The remanence model's power-loss decay over host memory. */
struct BytesKernel
{
    const char *tier; //!< "portable", "avx2"

    /**
     * Decay one remanence region of @p len bytes (at most a page) in
     * place, drawing from the xoshiro256** stream at @p state: one draw
     * per 4-byte word, a partial last word included. Byte i of a word
     * is kept when 16-bit lane i of its draw is below @p threshold
     * (at most 65535), and otherwise becomes @p ground.
     * @return the stream's state after those draws
     */
    Rng::State (*decayPage)(std::uint8_t *cells, std::size_t len,
                            Rng::State state, std::uint32_t threshold,
                            std::uint8_t ground);
};

/** The full registry: one entry per host hot path family. */
struct Kernels
{
    AesKernel aes;
    BytesKernel bytes;
};

/**
 * @return the active registry. First call detects features, verifies
 * the accelerated candidates against the portable tier, and caches the
 * result; later calls are one atomic pointer load.
 */
const Kernels &kernels();

/** @return the always-available portable reference tier. */
const Kernels &portableKernels();

/**
 * Test hook: swap the active registry (nullptr restores the default).
 * Lets tier-parity tests compare accelerated vs portable inside one
 * process without re-execing under SENTRY_FORCE_PORTABLE.
 */
void setActiveKernelsForTest(const Kernels *kernels);

/**
 * @return a short multi-line report of the detected CPU features and
 * the tier each hot path dispatches to (the `--host-info` payload).
 */
std::string hostInfoString();

/** @return "<features> / aes=<tier> bytes=<tier>" one-liner for bench
 *  records (the `host_cpu_features` key). */
std::string hostFeaturesKey();

/**
 * Copy one (possibly partial) 32-byte cache line. The L2 access path
 * calls this with len == CACHE_LINE_SIZE almost always; pinning that
 * case to a fixed-size copy lets the compiler emit two vector moves
 * instead of a variable-length memcpy dispatch.
 */
inline void
copyLine(std::uint8_t *dst, const std::uint8_t *src, std::size_t len)
{
    if (len == 32) {
        std::memcpy(dst, src, 32);
        return;
    }
    std::memcpy(dst, src, len);
}

/** XOR one 16-byte AES block word-wise (CBC chaining helper). */
inline void
xorBlock16(std::uint8_t *dst, const std::uint8_t *src)
{
    std::uint64_t a, b, c, d;
    std::memcpy(&a, dst, 8);
    std::memcpy(&b, dst + 8, 8);
    std::memcpy(&c, src, 8);
    std::memcpy(&d, src + 8, 8);
    a ^= c;
    b ^= d;
    std::memcpy(dst, &a, 8);
    std::memcpy(dst + 8, &b, 8);
}

} // namespace sentry::host

#endif // SENTRY_HOST_KERNELS_HH
