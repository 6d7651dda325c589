/**
 * @file
 * Remanence-model validation: survival probabilities against the
 * Table 2 calibration anchors, temperature behaviour (the freezer
 * trick), and statistical behaviour of the decay pass.
 */

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "crypto/sha256.hh"
#include "hw/cow_bytes.hh"
#include "hw/remanence.hh"

using namespace sentry;
using namespace sentry::hw;

TEST(Remanence, NoDecayAtZeroSeconds)
{
    RemanenceModel model(MemoryTech::Dram);
    EXPECT_DOUBLE_EQ(model.bitSurvival(0.0, 22.0), 1.0);
    EXPECT_DOUBLE_EQ(model.unitSurvival(0.0, 22.0), 1.0);
}

TEST(Remanence, Table2AnchorReflash)
{
    // ~7 ms reset tap preserves ~97.5% of 8-byte units at room temp.
    RemanenceModel model(MemoryTech::Dram);
    EXPECT_NEAR(model.unitSurvival(0.007, 22.0), 0.975, 0.005);
}

TEST(Remanence, Table2AnchorTwoSeconds)
{
    // A 2 s power loss preserves ~0.1% of units.
    RemanenceModel model(MemoryTech::Dram);
    EXPECT_NEAR(model.unitSurvival(2.0, 22.0), 0.001, 0.001);
}

TEST(Remanence, SurvivalIsMonotonicInTime)
{
    RemanenceModel model(MemoryTech::Dram);
    double prev = 1.0;
    for (double t : {0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 10.0}) {
        const double s = model.unitSurvival(t, 22.0);
        EXPECT_LT(s, prev);
        prev = s;
    }
}

TEST(Remanence, FreezerExtendsRetention)
{
    // The Frost attack: cooling the phone in a household freezer makes
    // a 2-second disconnect survivable.
    RemanenceModel model(MemoryTech::Dram);
    const double room = model.unitSurvival(2.0, 22.0);
    const double freezer = model.unitSurvival(2.0, -18.0);
    EXPECT_GT(freezer, 100.0 * room);
    EXPECT_GT(freezer, 0.3);
}

TEST(Remanence, SramDecaysSlowerThanDram)
{
    // Skorobogatov: SRAM retains data longer than DRAM.
    RemanenceModel dram(MemoryTech::Dram);
    RemanenceModel sram(MemoryTech::Sram);
    EXPECT_GT(sram.unitSurvival(2.0, 22.0), dram.unitSurvival(2.0, 22.0));
}

TEST(Remanence, DecayPassMatchesAnalyticSurvival)
{
    RemanenceModel model(MemoryTech::Dram);
    Rng rng(42);

    std::vector<std::uint8_t> memory(4 * MiB);
    const auto pattern = fromHex("a5a5a5a55a5a5a5a");
    fillPattern(memory, pattern);
    const std::size_t before = countPattern(memory, pattern);

    model.decay(memory, 0.007, 22.0, rng);
    const double survived =
        static_cast<double>(countPattern(memory, pattern)) /
        static_cast<double>(before);
    EXPECT_NEAR(survived, model.unitSurvival(0.007, 22.0), 0.01);
}

TEST(Remanence, HeavyDecayDestroysAlmostEverything)
{
    RemanenceModel model(MemoryTech::Dram);
    Rng rng(43);

    std::vector<std::uint8_t> memory(1 * MiB);
    const auto pattern = fromHex("0123456789abcdef");
    fillPattern(memory, pattern);
    const std::size_t before = countPattern(memory, pattern);

    model.decay(memory, 2.0, 22.0, rng);
    const double survived =
        static_cast<double>(countPattern(memory, pattern)) /
        static_cast<double>(before);
    EXPECT_LT(survived, 0.01);
}

TEST(Remanence, DecayedBytesCollapseToGroundPolarity)
{
    RemanenceModel model(MemoryTech::Dram);
    Rng rng(44);

    std::vector<std::uint8_t> memory(64 * KiB, 0x3c);
    model.decay(memory, 10.0, 22.0, rng); // near-total decay
    // After total decay only ground bytes (0x00 / 0xff) and rare
    // survivors (0x3c) remain.
    for (std::uint8_t b : memory)
        EXPECT_TRUE(b == 0x00 || b == 0xff || b == 0x3c) << int(b);
}

TEST(Remanence, DecayIsDeterministicPerSeed)
{
    RemanenceModel model(MemoryTech::Dram);
    std::vector<std::uint8_t> a(64 * KiB, 0x77), b(64 * KiB, 0x77);
    Rng rngA(7), rngB(7);
    model.decay(a, 0.5, 22.0, rngA);
    model.decay(b, 0.5, 22.0, rngB);
    EXPECT_EQ(a, b);
}

TEST(Remanence, DecayOutputAndStreamArePinned)
{
    // Digests of the byte-at-a-time decay loop this model started from:
    // the word-wise blend must leave every byte and the generator's
    // next draw exactly where that loop did. 2 pages + 1031 bytes ends
    // in a partial region whose last word is three bytes long.
    struct Case
    {
        MemoryTech tech;
        double seconds;
        double celsius;
        const char *digest;
    };
    const Case cases[] = {
        {MemoryTech::Dram, 0.007, 22.0,
         "b2113cfcce48d0c653f354cc84750f4ca0250baa97a0de488a5958aee0db8cdd"},
        {MemoryTech::Dram, 2.0, 22.0,
         "4acd48687f952a6bd3bedca10384ecebb56296c63dfaf58ef203708edbb3f396"},
        {MemoryTech::Dram, 2.0, -18.0,
         "e0c28f89f7c2835d675bacb2ac3e91296c4938a65b001665cd3bfa7fc1de6dcd"},
        {MemoryTech::Sram, 0.007, 22.0,
         "2d9414b42785360ccc944872fe4f62946e7a50e8177ea44dd6bca0c7bb59b138"},
        {MemoryTech::Sram, 2.0, 22.0,
         "d249f22d7c03094e4df13e718818269e1f031364e1a0499fd1c2e40335c00e30"},
        {MemoryTech::Sram, 2.0, -18.0,
         "163cad370c3ce3f50c7d2f8c042b63a32080ce1f2cd4211ea07970533b5cb294"},
    };
    for (const Case &c : cases) {
        std::vector<std::uint8_t> memory(2 * PAGE_SIZE + 1031);
        Rng fill(0x5eed);
        for (auto &byte : memory)
            byte = static_cast<std::uint8_t>(fill.next64());
        Rng rng(1234);
        RemanenceModel(c.tech).decay(memory, c.seconds, c.celsius, rng);
        EXPECT_EQ(toHex(crypto::Sha256::hash(memory)), c.digest)
            << c.seconds << " s at " << c.celsius << " C";
        EXPECT_EQ(rng.next64(), 0x3302c55068f560d4ULL)
            << c.seconds << " s at " << c.celsius << " C";
    }
}

TEST(Remanence, PageWiseDecayMatchesOnePass)
{
    // Dram::powerLoss decays one page at a time; 4 KiB pages are the
    // model's ground regions, so the bytes and the stream match a
    // single pass over the whole array.
    RemanenceModel model(MemoryTech::Dram);
    std::vector<std::uint8_t> whole(5 * PAGE_SIZE, 0x6d);
    std::vector<std::uint8_t> paged = whole;
    Rng rngWhole(9), rngPaged(9);
    model.decay(whole, 1.0, 22.0, rngWhole);
    for (std::size_t off = 0; off < paged.size(); off += PAGE_SIZE)
        model.decay({paged.data() + off, PAGE_SIZE}, 1.0, 22.0, rngPaged);
    EXPECT_EQ(whole, paged);
    EXPECT_EQ(rngWhole.next64(), rngPaged.next64());
}

TEST(Remanence, CowDecayMatchesSpanReference)
{
    // A forked array with every page state: Zero (0, 4, 6, 8..11 and
    // the partial page 12), Shared (2, and the all-zero 3), Private
    // (1, 5) and all-zero Private (7). Decaying it in place must give
    // the bytes and the next draw of the span decay over a copy of its
    // contents, for each pinned case.
    constexpr std::size_t PAGES = 13;
    constexpr std::size_t SIZE = (PAGES - 1) * PAGE_SIZE + 1031;
    Rng fill(0x5eed);
    const auto randomPage = [&fill] {
        std::vector<std::uint8_t> page(PAGE_SIZE);
        for (auto &byte : page)
            byte = static_cast<std::uint8_t>(fill.next64());
        return page;
    };
    const std::vector<std::uint8_t> zeros(PAGE_SIZE, 0);
    CowBytes source(SIZE);
    source.write(2 * PAGE_SIZE, randomPage().data(), PAGE_SIZE);
    source.write(3 * PAGE_SIZE, zeros.data(), PAGE_SIZE);
    source.write(5 * PAGE_SIZE, randomPage().data(), PAGE_SIZE);
    const auto image = source.freeze();
    const auto page1 = randomPage();
    const auto half5 = randomPage();

    const struct
    {
        MemoryTech tech;
        double seconds, celsius;
    } cases[] = {
        {MemoryTech::Dram, 0.007, 22.0}, {MemoryTech::Dram, 2.0, 22.0},
        {MemoryTech::Dram, 2.0, -18.0},  {MemoryTech::Sram, 0.007, 22.0},
        {MemoryTech::Sram, 2.0, 22.0},   {MemoryTech::Sram, 2.0, -18.0},
    };
    std::size_t skipped = 0, rewrittenZero = 0;
    for (const auto &c : cases) {
        CowBytes cells(SIZE);
        cells.adopt(image);
        cells.write(PAGE_SIZE, page1.data(), PAGE_SIZE);
        cells.write(5 * PAGE_SIZE + 100, half5.data(), 2000);
        cells.write(7 * PAGE_SIZE, zeros.data(), PAGE_SIZE);
        std::vector<std::uint64_t> stamps;
        for (std::size_t page = 0; page < PAGES; ++page) {
            ASSERT_EQ(cells.pageIsPrivate(page), page == 1 || page == 5 ||
                                                     page == 7);
            stamps.push_back(cells.pageStamp(page));
        }
        std::vector<std::uint8_t> reference(SIZE);
        cells.read(0, reference.data(), SIZE);

        const RemanenceModel model(c.tech);
        Rng cowRng(1234), spanRng(1234), grounds(1234);
        model.decay(cells, c.seconds, c.celsius, cowRng);
        model.decay(reference, c.seconds, c.celsius, spanRng);
        std::vector<std::uint8_t> decayed(SIZE);
        cells.read(0, decayed.data(), SIZE);
        EXPECT_EQ(decayed, reference) << c.seconds << " s at " << c.celsius;
        EXPECT_EQ(cowRng.next64(), spanRng.next64())
            << c.seconds << " s at " << c.celsius;

        // Replay the draws: a full Zero page that drew ground 0x00 is
        // left alone; every other page was rewritten.
        for (std::size_t page = 0; page < PAGES; ++page) {
            const bool groundZero = grounds.chance(0.5);
            const std::size_t len =
                std::min(PAGE_SIZE, SIZE - page * PAGE_SIZE);
            for (std::size_t word = 0; word < (len + 3) / 4; ++word)
                grounds.next64();
            const bool wasZero = page != 1 && page != 2 && page != 3 &&
                                 page != 5 && page != 7;
            const bool fullZero = wasZero && len == PAGE_SIZE;
            const bool untouched = fullZero && groundZero;
            skipped += untouched;
            rewrittenZero += fullZero && !groundZero;
            EXPECT_EQ(cells.pageIsPrivate(page), !untouched) << page;
            if (untouched)
                EXPECT_EQ(cells.pageStamp(page), stamps[page]) << page;
            else
                EXPECT_GT(cells.pageStamp(page), stamps[page]) << page;
        }
    }
    // The cases exercise both the skip and the rewrite of Zero pages.
    EXPECT_GT(skipped, 0u);
    EXPECT_GT(rewrittenZero, 0u);
}

TEST(Remanence, DeferredPagesMatchSpanReferenceAcrossPowerLosses)
{
    // Zero pages (0, 3, 4 and the partial page 5), a Shared page (1)
    // and a Private one (2) through twelve power losses, with and
    // without a read in between. A full Zero page that draws 0xFF is
    // deferred, and stays deferred through the later losses until the
    // read, or until it holds eight decays and the ninth loss computes
    // it; the bytes, the stamps and the next draw must equal the span
    // decay of a plain copy after every loss.
    constexpr std::size_t SIZE = 5 * PAGE_SIZE + 1031;
    Rng fill(0x5eed);
    std::vector<std::uint8_t> page1(PAGE_SIZE), page2(PAGE_SIZE);
    for (auto &byte : page1)
        byte = static_cast<std::uint8_t>(fill.next64());
    for (auto &byte : page2)
        byte = static_cast<std::uint8_t>(fill.next64());
    CowBytes source(SIZE);
    source.write(PAGE_SIZE, page1.data(), PAGE_SIZE);
    const auto image = source.freeze();

    const struct
    {
        double seconds, celsius;
    } kinds[] = {{2.0, 22.0}, {0.007, -18.0}, {2.0, -18.0}};
    std::size_t deferred = 0, redeferred = 0, computedByLoss = 0;
    for (const MemoryTech tech : {MemoryTech::Dram, MemoryTech::Sram}) {
        for (const bool readBetween : {false, true}) {
            for (std::uint64_t seed = 1; seed <= 8; ++seed) {
                CowBytes cells(SIZE);
                cells.adopt(image);
                cells.write(2 * PAGE_SIZE, page2.data(), PAGE_SIZE);
                std::vector<std::uint8_t> reference(SIZE);
                cells.read(0, reference.data(), SIZE);
                const RemanenceModel model(tech);
                Rng cowRng(seed), spanRng(seed);
                std::vector<bool> wasDeferred(cells.pageCount(), false);
                for (int n = 0; n < 12; ++n) {
                    const auto &loss = kinds[n % 3];
                    const std::uint64_t before = cells.generation();
                    model.decay(cells, loss.seconds, loss.celsius, cowRng);
                    model.decay(reference, loss.seconds, loss.celsius,
                                spanRng);
                    Rng nextCow = cowRng, nextSpan = spanRng;
                    ASSERT_EQ(nextCow.next64(), nextSpan.next64());
                    for (std::size_t page = 0; page < cells.pageCount();
                         ++page) {
                        const bool isDeferred = cells.pageIsDeferred(page);
                        EXPECT_TRUE(!isDeferred || page == 0 ||
                                    page == 3 || page == 4)
                            << page;
                        // Every page but a Zero one left alone is
                        // stamped by the loss.
                        EXPECT_EQ(cells.pageStamp(page) > before,
                                  cells.pageIsPrivate(page))
                            << page;
                        deferred += isDeferred;
                        redeferred += isDeferred && wasDeferred[page];
                        computedByLoss += !isDeferred && wasDeferred[page];
                        wasDeferred[page] = isDeferred;
                    }
                    if (readBetween) {
                        std::vector<std::uint8_t> decayed(SIZE);
                        cells.read(0, decayed.data(), SIZE);
                        ASSERT_EQ(decayed, reference);
                        std::fill(wasDeferred.begin(), wasDeferred.end(),
                                  false);
                    }
                }
                std::vector<std::uint8_t> decayed(SIZE);
                cells.read(0, decayed.data(), SIZE);
                EXPECT_EQ(decayed, reference);
                for (std::size_t page = 0; page < cells.pageCount(); ++page)
                    EXPECT_FALSE(cells.pageIsDeferred(page)) << page;
            }
        }
    }
    EXPECT_GT(deferred, 0u);
    EXPECT_GT(redeferred, 0u);
    EXPECT_GT(computedByLoss, 0u);
}

TEST(Remanence, SkipDecayAdvancesTheStreamAsDecay)
{
    for (const MemoryTech tech : {MemoryTech::Dram, MemoryTech::Sram}) {
        const RemanenceModel model(tech);
        for (const std::size_t size :
             {PAGE_SIZE, 3 * PAGE_SIZE, 2 * PAGE_SIZE + 1031,
              PAGE_SIZE + 2}) {
            for (const double seconds : {0.0, 0.007, 2.0}) {
                std::vector<std::uint8_t> memory(size, 0x5a);
                Rng decayed(77), skipped(77);
                model.decay(memory, seconds, -18.0, decayed);
                model.skipDecay(size, seconds, -18.0, skipped);
                EXPECT_EQ(decayed.next64(), skipped.next64())
                    << size << " bytes, " << seconds << " s";
            }
        }
    }
}
