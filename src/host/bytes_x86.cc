/**
 * @file
 * AVX2 power-loss decay tier for x86-64, the one byte kernel with an
 * accelerated tier. Every power loss decays each written page, which
 * the serial draw stream would otherwise bound at one 64-bit draw per
 * four bytes; here four generator lanes decay a page's quarters at
 * once. (The byte scans of common/bytes.hh have one portable body: no
 * workload gained from an AVX2 tier of theirs.)
 */

#include "host/kernels_detail.hh"

#if defined(__x86_64__)

#include <immintrin.h>

#include "common/types.hh"

namespace sentry::host::detail
{

namespace
{

template <int K>
__attribute__((target("avx2"))) inline __m256i
rotl64(__m256i x)
{
    return _mm256_or_si256(_mm256_slli_epi64(x, K),
                           _mm256_srli_epi64(x, 64 - K));
}

/** Four xoshiro256** generators, one per 64-bit lane: word k of every
 * lane's state sits in s[k]. */
struct XoshiroLanes
{
    __m256i s[4];

    /** @return each lane's next draw, as Rng::next64() computes it. */
    __attribute__((target("avx2"))) __m256i
    next()
    {
        // x * 5 and x * 9 as shift-adds: AVX2 has no 64-bit multiply.
        const __m256i times5 =
            _mm256_add_epi64(s[1], _mm256_slli_epi64(s[1], 2));
        const __m256i rotated = rotl64<7>(times5);
        const __m256i result =
            _mm256_add_epi64(rotated, _mm256_slli_epi64(rotated, 3));
        const __m256i t = _mm256_slli_epi64(s[1], 17);
        s[2] = _mm256_xor_si256(s[2], s[0]);
        s[3] = _mm256_xor_si256(s[3], s[1]);
        s[1] = _mm256_xor_si256(s[1], s[2]);
        s[0] = _mm256_xor_si256(s[0], s[3]);
        s[2] = _mm256_xor_si256(s[2], t);
        s[3] = rotl64<45>(s[3]);
        return result;
    }
};

/** Transpose four steps' draws (v[i] = every lane's draw i) into four
 * runs (out[lane] = that lane's draws 0..3, in order). */
__attribute__((target("avx2"))) inline void
transpose4(const __m256i v[4], __m256i out[4])
{
    const __m256i t0 = _mm256_unpacklo_epi64(v[0], v[1]);
    const __m256i t1 = _mm256_unpackhi_epi64(v[0], v[1]);
    const __m256i t2 = _mm256_unpacklo_epi64(v[2], v[3]);
    const __m256i t3 = _mm256_unpackhi_epi64(v[2], v[3]);
    out[0] = _mm256_permute2x128_si256(t0, t2, 0x20);
    out[1] = _mm256_permute2x128_si256(t1, t3, 0x20);
    out[2] = _mm256_permute2x128_si256(t0, t2, 0x31);
    out[3] = _mm256_permute2x128_si256(t1, t3, 0x31);
}

/**
 * A full page takes 1024 word draws. Lane k starts k * JUMP_DRAWS
 * draws into the stream and decays the page's quarter k, so the four
 * lanes together consume exactly the draws of the serial loop, and
 * lane 3 ends where the serial stream would.
 */
__attribute__((target("avx2"))) Rng::State
avx2DecayPage(std::uint8_t *cells, std::size_t len, Rng::State state,
              std::uint32_t threshold, std::uint8_t ground)
{
    constexpr std::size_t LANES = 4;
    constexpr std::size_t QUARTER = PAGE_SIZE / LANES;
    static_assert(QUARTER == 4 * Rng::JUMP_DRAWS);
    if (len != PAGE_SIZE)
        return portableKernels().bytes.decayPage(cells, len, state,
                                                 threshold, ground);

    Rng::State start[LANES] = {state};
    Rng lane;
    lane.setState(state);
    for (std::size_t k = 1; k < LANES; ++k) {
        lane.jump();
        start[k] = lane.state();
    }
    XoshiroLanes lanes;
    for (std::size_t w = 0; w < 4; ++w) {
        lanes.s[w] = _mm256_set_epi64x(
            static_cast<long long>(start[3][w]),
            static_cast<long long>(start[2][w]),
            static_cast<long long>(start[1][w]),
            static_cast<long long>(start[0][w]));
    }

    // lane < threshold as a signed 16-bit compare: bias both by 0x8000.
    const __m256i bias = _mm256_set1_epi16(static_cast<short>(0x8000));
    const __m256i limit =
        _mm256_set1_epi16(static_cast<short>(threshold ^ 0x8000));
    const __m256i groundBytes =
        _mm256_set1_epi8(static_cast<char>(ground));
    // Eight steps give each lane 32 bytes' worth of 16-bit draws.
    for (std::size_t at = 0; at < QUARTER; at += 32) {
        __m256i draws[8], runs[2][LANES];
        for (__m256i &draw : draws)
            draw = lanes.next();
        transpose4(draws, runs[0]);
        transpose4(draws + 4, runs[1]);
        for (std::size_t k = 0; k < LANES; ++k) {
            const __m256i keepLo = _mm256_cmpgt_epi16(
                limit, _mm256_xor_si256(runs[0][k], bias));
            const __m256i keepHi = _mm256_cmpgt_epi16(
                limit, _mm256_xor_si256(runs[1][k], bias));
            // packs interleaves 128-bit halves; the permute restores
            // byte order.
            const __m256i keep = _mm256_permute4x64_epi64(
                _mm256_packs_epi16(keepLo, keepHi), 0xd8);
            auto *at32 =
                reinterpret_cast<__m256i *>(cells + k * QUARTER + at);
            _mm256_storeu_si256(
                at32, _mm256_blendv_epi8(groundBytes,
                                         _mm256_loadu_si256(at32), keep));
        }
    }

    alignas(32) std::uint64_t words[4][LANES];
    for (std::size_t w = 0; w < 4; ++w)
        _mm256_store_si256(reinterpret_cast<__m256i *>(words[w]),
                           lanes.s[w]);
    return {words[0][3], words[1][3], words[2][3], words[3][3]};
}

} // namespace

bool
x86BytesKernel(BytesKernel &out, const CpuFeatures &features)
{
    if (!features.avx2)
        return false;
    out = BytesKernel{"avx2", avx2DecayPage};
    return true;
}

} // namespace sentry::host::detail

#else // !__x86_64__

namespace sentry::host::detail
{

bool
x86BytesKernel(BytesKernel &out, const CpuFeatures &features)
{
    (void)out;
    (void)features;
    return false;
}

} // namespace sentry::host::detail

#endif
