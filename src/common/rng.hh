/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Uses xoshiro256** seeded via SplitMix64. All simulated stochastic
 * behaviour (DRAM remanence decay, workload address streams, DMA timing)
 * draws from instances of this class so every experiment is reproducible
 * from its seed.
 *
 * The state update is linear over GF(2), so skipping a fixed number of
 * draws is one matrix product over the 256 state bits. jump() skips
 * JUMP_DRAWS draws and jumpPage() PAGE_JUMP_DRAWS draws, each through
 * a table built at compile time (rng.cc); state() and setState() let a
 * kernel step the stream in SIMD lanes and hand it back.
 */

#ifndef SENTRY_COMMON_RNG_HH
#define SENTRY_COMMON_RNG_HH

#include <array>
#include <cstdint>

namespace sentry
{

/** SplitMix64 step: advance @p state and return the next output. */
constexpr std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Fast, seedable PRNG (xoshiro256**). Not cryptographic. */
class Rng
{
  public:
    /** The generator's four 64-bit state words. */
    using State = std::array<std::uint64_t, 4>;

    /** Draws that one jump() skips. */
    static constexpr unsigned JUMP_DRAWS = 256;

    /** Draws that one jumpPage() skips: what decaying one 4 KiB page
     * takes, at one 64-bit draw per four bytes. */
    static constexpr unsigned PAGE_JUMP_DRAWS = 4 * JUMP_DRAWS;

    explicit Rng(std::uint64_t seed = 0x5e47ee1dULL) { reseed(seed); }

    /** Reset the stream from a 64-bit seed. */
    void
    reseed(std::uint64_t seed)
    {
        // SplitMix64 expansion of the seed into the 256-bit state.
        for (auto &word : state_)
            word = splitmix64(seed);
    }

    /** @return the next 64 random bits. */
    std::uint64_t
    next64()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** @return a uniform value in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's nearly-divisionless bounded generation.
        __uint128_t m = static_cast<__uint128_t>(next64()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** @return a uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /** @return the current state; setState() resumes from it. */
    const State &state() const { return state_; }

    /** Continue the stream from @p state. */
    void setState(const State &state) { state_ = state; }

    /** Advance the stream as JUMP_DRAWS calls to next64() would, in 64
     * table lookups. */
    void jump();

    /** Advance the stream as PAGE_JUMP_DRAWS calls to next64() would,
     * in 64 table lookups. */
    void jumpPage();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    State state_;
};

} // namespace sentry

#endif // SENTRY_COMMON_RNG_HH
