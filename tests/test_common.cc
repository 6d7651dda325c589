/**
 * @file
 * Tests for the common utilities: byte helpers, RNG, SimClock, stats.
 */

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "common/rng.hh"
#include "common/sim_clock.hh"
#include "common/stats.hh"
#include "common/types.hh"

using namespace sentry;

TEST(Bytes, FillAndCountPattern)
{
    std::vector<std::uint8_t> buf(64);
    const auto pattern = fromHex("deadbeefcafef00d");
    fillPattern(buf, pattern);
    EXPECT_EQ(countPattern(buf, pattern), 8u);

    buf[8] ^= 0xff; // corrupt the second occurrence
    EXPECT_EQ(countPattern(buf, pattern), 7u);
}

TEST(Bytes, CountPatternIsAlignedNotSliding)
{
    // An occurrence shifted by one byte must not count.
    std::vector<std::uint8_t> buf(17, 0);
    const std::vector<std::uint8_t> pattern{1, 2, 3, 4, 5, 6, 7, 8};
    std::copy(pattern.begin(), pattern.end(), buf.begin() + 1);
    EXPECT_EQ(countPattern(buf, pattern), 0u);
}

TEST(Bytes, ContainsBytesFindsUnalignedNeedles)
{
    std::vector<std::uint8_t> hay(100, 0);
    const std::vector<std::uint8_t> needle{9, 8, 7};
    std::copy(needle.begin(), needle.end(), hay.begin() + 41);
    EXPECT_TRUE(containsBytes(hay, needle));
    EXPECT_FALSE(containsBytes(hay, fromHex("010203")));
    EXPECT_FALSE(containsBytes(needle, hay)); // needle longer than hay
}

namespace
{

/** Feed @p stream to @p matcher in chunks of @p chunk bytes. */
void
feedInChunks(StreamMatcher &matcher, const std::vector<std::uint8_t> &stream,
             std::size_t chunk)
{
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
        const std::size_t len = std::min(chunk, stream.size() - off);
        matcher.feed({stream.data() + off, len});
    }
}

} // namespace

TEST(StreamMatcher, FindsANeedleAtEveryOffsetAcrossSeams)
{
    // One 8-byte needle at every offset of a 40-byte stream, fed as two
    // chunks (one seam), in 3-byte chunks (short chunks: several seams
    // per occurrence) and in 1-byte chunks.
    const auto needle = fromHex("0102030405060708");
    for (std::size_t at = 0; at + needle.size() <= 40; ++at) {
        std::vector<std::uint8_t> stream(40, 0);
        std::copy(needle.begin(), needle.end(), stream.begin() + at);
        for (const std::size_t chunk : {20u, 3u, 1u}) {
            StreamMatcher matcher({needle});
            feedInChunks(matcher, stream, chunk);
            EXPECT_TRUE(matcher.found(0)) << "at " << at << " chunk "
                                          << chunk;
        }
    }
}

TEST(StreamMatcher, OneByteEmptyAndOverlongNeedles)
{
    const std::vector<std::uint8_t> stream{7, 8, 9};
    StreamMatcher matcher({{8}, {}, {7, 8, 9, 10}, {9, 7}, {6}});
    EXPECT_EQ(matcher.size(), 5u);
    feedInChunks(matcher, stream, 1);
    EXPECT_TRUE(matcher.found(0));
    EXPECT_FALSE(matcher.found(1)); // containsBytes never finds ""
    EXPECT_FALSE(matcher.found(2)); // longer than the whole stream
    EXPECT_FALSE(matcher.found(3));
    EXPECT_FALSE(matcher.found(4));

    StreamMatcher onlyEmpty(std::vector<std::vector<std::uint8_t>>(1));
    onlyEmpty.feed(stream);
    EXPECT_FALSE(onlyEmpty.found(0));
}

TEST(StreamMatcher, ResetStartsANewStream)
{
    StreamMatcher matcher({fromHex("aabb"), fromHex("bbcc")});
    matcher.feed(fromHex("00aa"));
    matcher.feed(fromHex("bb"));
    EXPECT_TRUE(matcher.found(0));
    matcher.reset();
    EXPECT_FALSE(matcher.found(0));
    // The tail "bb" of the old stream must not meet the new one.
    matcher.feed(fromHex("cc00"));
    EXPECT_FALSE(matcher.found(1));
    matcher.feed(fromHex("bb"));
    matcher.feed(fromHex("cc"));
    EXPECT_TRUE(matcher.found(1));
    EXPECT_FALSE(matcher.found(0));
}

TEST(StreamMatcher, EqualsContainsBytesOverTheConcatenation)
{
    // Random streams over a 3-letter alphabet (many partial matches),
    // needles of 0-12 bytes cut from the stream or drawn at random, and
    // random chunk sizes including empty and shorter-than-carry chunks:
    // after every feed, found(i) equals a grep of the whole prefix.
    Rng rng(0x5eedf00d);
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<std::uint8_t> stream(rng.below(200));
        for (auto &byte : stream)
            byte = static_cast<std::uint8_t>(rng.below(3));
        std::vector<std::vector<std::uint8_t>> needles(1 + rng.below(4));
        for (auto &needle : needles) {
            const std::size_t len = rng.below(13);
            if (rng.below(2) == 0 && len <= stream.size()) {
                const std::size_t at = rng.below(stream.size() - len + 1);
                needle.assign(stream.begin() + at,
                              stream.begin() + at + len);
            } else {
                needle.resize(len);
                for (auto &byte : needle)
                    byte = static_cast<std::uint8_t>(rng.below(3));
            }
        }
        StreamMatcher matcher(needles);
        std::size_t fed = 0;
        while (fed < stream.size()) {
            const std::size_t len =
                std::min<std::size_t>(rng.below(20), stream.size() - fed);
            matcher.feed({stream.data() + fed, len});
            fed += len;
            const std::span<const std::uint8_t> prefix(stream.data(), fed);
            for (std::size_t i = 0; i < needles.size(); ++i) {
                ASSERT_EQ(matcher.found(i), containsBytes(prefix, needles[i]))
                    << "trial " << trial << " needle " << i << " after "
                    << fed << " bytes";
            }
        }
    }
}

TEST(Bytes, HexRoundTrip)
{
    const auto bytes = fromHex("00ff10abCDef");
    EXPECT_EQ(toHex(bytes), "00ff10abcdef");
}

TEST(Bytes, SecureZero)
{
    std::vector<std::uint8_t> buf(32, 0xaa);
    secureZero(buf.data(), buf.size());
    for (std::uint8_t b : buf)
        EXPECT_EQ(b, 0);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(123), b(123), c(456);
    EXPECT_EQ(a.next64(), b.next64());
    EXPECT_NE(a.next64(), c.next64());
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformIsRoughlyUniform)
{
    Rng rng(99);
    double sum = 0;
    constexpr int N = 100000;
    for (int i = 0; i < N; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / N, 0.5, 0.01);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(5);
    int hits = 0;
    constexpr int N = 100000;
    for (int i = 0; i < N; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / N, 0.25, 0.01);
}

TEST(Rng, JumpEqualsStepping)
{
    // From states far from any seed, one jump and four jumps land where
    // stepping JUMP_DRAWS and 4 * JUMP_DRAWS draws does, and so does
    // one page jump.
    Rng source(0x7ab1e);
    for (int trial = 0; trial < 16; ++trial) {
        const Rng::State start = {source.next64(), source.next64(),
                                  source.next64(), source.next64()};
        for (const unsigned jumps : {1u, 4u}) {
            Rng stepped, jumped;
            stepped.setState(start);
            jumped.setState(start);
            for (unsigned i = 0; i < jumps * Rng::JUMP_DRAWS; ++i)
                stepped.next64();
            for (unsigned i = 0; i < jumps; ++i)
                jumped.jump();
            EXPECT_EQ(jumped.state(), stepped.state())
                << "trial " << trial << ", " << jumps << " jumps";
            EXPECT_EQ(jumped.next64(), stepped.next64());
        }
        // One page jump lands where PAGE_JUMP_DRAWS steps and four
        // plain jumps do.
        Rng stepped, jumped, quartered;
        stepped.setState(start);
        jumped.setState(start);
        quartered.setState(start);
        for (unsigned i = 0; i < Rng::PAGE_JUMP_DRAWS; ++i)
            stepped.next64();
        jumped.jumpPage();
        for (unsigned i = 0; i < Rng::PAGE_JUMP_DRAWS / Rng::JUMP_DRAWS; ++i)
            quartered.jump();
        EXPECT_EQ(jumped.state(), stepped.state()) << "trial " << trial;
        EXPECT_EQ(jumped.state(), quartered.state()) << "trial " << trial;
        EXPECT_EQ(jumped.next64(), stepped.next64());
    }
}

TEST(SimClock, AdvancesAndConverts)
{
    SimClock clock(1e9); // 1 GHz
    clock.advance(500);
    EXPECT_EQ(clock.now(), 500u);
    EXPECT_DOUBLE_EQ(clock.seconds(), 500e-9);

    clock.advanceSeconds(1.0);
    EXPECT_NEAR(clock.seconds(), 1.0 + 500e-9, 1e-12);
}

TEST(SimClock, StopwatchMeasuresWindows)
{
    SimClock clock(2e9);
    SimStopwatch watch(clock);
    clock.advance(2'000'000);
    EXPECT_DOUBLE_EQ(watch.elapsedSeconds(), 1e-3);
    watch.restart();
    EXPECT_DOUBLE_EQ(watch.elapsedSeconds(), 0.0);
}

TEST(RunningStat, MeanAndStddev)
{
    RunningStat stat;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stat.add(x);
    EXPECT_EQ(stat.count(), 8u);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_NEAR(stat.stddev(), 2.138, 0.001); // sample stddev
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(RunningStat, EmptyAndSingle)
{
    RunningStat stat;
    EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stat.stddev(), 0.0);
    stat.add(3.5);
    EXPECT_DOUBLE_EQ(stat.mean(), 3.5);
    EXPECT_DOUBLE_EQ(stat.stddev(), 0.0);
}

TEST(RunningStat, NearestRankPercentiles)
{
    RunningStat stat;
    EXPECT_DOUBLE_EQ(stat.percentile(50.0), 0.0); // empty

    // Insertion order must not matter: add 1..100 shuffled.
    for (double x : {73.0, 12.0, 99.0, 1.0, 50.0})
        stat.add(x);
    for (int x = 1; x <= 100; ++x)
        if (x != 73 && x != 12 && x != 99 && x != 1 && x != 50)
            stat.add(static_cast<double>(x));

    // Nearest-rank: p-th percentile of 1..100 is exactly p.
    EXPECT_DOUBLE_EQ(stat.p50(), 50.0);
    EXPECT_DOUBLE_EQ(stat.p95(), 95.0);
    EXPECT_DOUBLE_EQ(stat.p99(), 99.0);
    EXPECT_DOUBLE_EQ(stat.percentile(0.0), 1.0);    // smallest sample
    EXPECT_DOUBLE_EQ(stat.percentile(100.0), 100.0);
    EXPECT_DOUBLE_EQ(stat.percentile(150.0), 100.0); // clamped
    EXPECT_DOUBLE_EQ(stat.percentile(-5.0), 1.0);    // clamped

    stat.reset();
    EXPECT_DOUBLE_EQ(stat.p99(), 0.0);
    stat.add(42.0);
    EXPECT_DOUBLE_EQ(stat.p50(), 42.0);
    EXPECT_DOUBLE_EQ(stat.p99(), 42.0);
}

TEST(Types, Alignment)
{
    EXPECT_EQ(alignDown(0x1234, 0x1000), 0x1000u);
    EXPECT_EQ(alignUp(0x1234, 0x1000), 0x2000u);
    EXPECT_EQ(alignUp(0x1000, 0x1000), 0x1000u);
    EXPECT_EQ(alignDown(0x1000, 0x1000), 0x1000u);
}
