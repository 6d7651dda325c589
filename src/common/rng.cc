#include "common/rng.hh"

namespace sentry
{

namespace
{

using State = Rng::State;

/** @return @p state after JUMP_DRAWS xoshiro256** updates (outputs
 * discarded). Plain words, not State: every std::array access counts
 * against the compiler's constexpr operation limit. */
constexpr State
advance(const State &state)
{
    std::uint64_t s0 = state[0], s1 = state[1], s2 = state[2],
                  s3 = state[3];
    for (unsigned i = 0; i < Rng::JUMP_DRAWS; ++i) {
        const std::uint64_t t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = (s3 << 45) | (s3 >> 19);
    }
    return {s0, s1, s2, s3};
}

/**
 * A jump table for some number of draws: entry[p][v] is the state
 * those draws make of a state whose only set bits are the nibble v at
 * nibble position p (bits 4p..4p+3, counted from bit 0 of word 0, so
 * position p lies in word p / 16). The update is linear, so a jump is
 * the XOR of one entry per position: 64 positions x 16 values x 32
 * bytes = 32 KiB, in read-only data. Plain arrays, not std::array:
 * the compiler evaluates built-in subscripts in a fraction of the time
 * it takes for operator[] calls, which keeps this file's build time
 * down.
 */
struct JumpTable
{
    std::uint64_t entry[64][16][4];
};

/** @return @p state advanced through @p table. Four accumulators and a
 * shifting nibble keep the product in registers: about 2.5x faster than
 * indexing the state per nibble. Stepping a pointer through the
 * positions, rather than indexing entry[16 * word + nibble], saves an
 * instruction per lookup (about 10% of a jump). */
constexpr State
applyJump(const JumpTable &table, const State &state)
{
    std::uint64_t out0 = 0, out1 = 0, out2 = 0, out3 = 0;
    const std::uint64_t(*position)[16][4] = table.entry;
    for (unsigned word = 0; word < 4; ++word) {
        std::uint64_t bits = state[word];
        for (unsigned nibble = 0; nibble < 16;
             ++nibble, ++position, bits >>= 4) {
            const std::uint64_t *part = (*position)[bits & 0xf];
            out0 ^= part[0];
            out1 ^= part[1];
            out2 ^= part[2];
            out3 ^= part[3];
        }
    }
    return {out0, out1, out2, out3};
}

/** @return the table whose basis images @p advance computes. */
template <typename Advance>
constexpr JumpTable
buildJumpTable(Advance advance)
{
    JumpTable table{};
    for (unsigned pos = 0; pos < 64; ++pos) {
        State image[4] = {};
        for (unsigned b = 0; b < 4; ++b) {
            const unsigned bit = 4 * pos + b;
            State s{};
            s[bit / 64] = std::uint64_t{1} << (bit % 64);
            image[b] = advance(s);
        }
        for (unsigned v = 0; v < 16; ++v) {
            for (unsigned b = 0; b < 4; ++b) {
                if (((v >> b) & 1) == 0)
                    continue;
                for (unsigned w = 0; w < 4; ++w)
                    table.entry[pos][v][w] ^= image[b][w];
            }
        }
    }
    return table;
}

// Built by the compiler (under a second): a table built at run time
// would cost its first user about 0.2 ms.
constexpr JumpTable JUMP = buildJumpTable(advance);

// Four applications of JUMP per basis state, which the compiler
// evaluates about twice as fast as stepping the generator
// PAGE_JUMP_DRAWS times per basis state.
constexpr JumpTable PAGE_JUMP = buildJumpTable([](const State &s) {
    State out = s;
    for (unsigned i = 0; i < Rng::PAGE_JUMP_DRAWS / Rng::JUMP_DRAWS; ++i)
        out = applyJump(JUMP, out);
    return out;
});

} // namespace

void
Rng::jump()
{
    state_ = applyJump(JUMP, state_);
}

void
Rng::jumpPage()
{
    state_ = applyJump(PAGE_JUMP, state_);
}

} // namespace sentry
