/**
 * @file
 * Edge-path coverage for the attack-report formatter and the
 * DramScanner forensics helper: oversized report fields (the snprintf
 * truncation path), empty/oversized needles, pristine (all-zero) DRAM,
 * full-remanence and fully-decayed power loss, and overlapping pattern
 * placements versus the aligned Table 2 grep.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "attacks/report.hh"
#include "common/bytes.hh"
#include "core/dram_scanner.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"

using namespace sentry;
using namespace sentry::attacks;
using namespace sentry::core;
using namespace sentry::hw;

namespace
{

std::vector<std::uint8_t>
bytesOf(const char *text)
{
    const auto *p = reinterpret_cast<const std::uint8_t *>(text);
    return {p, p + std::strlen(text)};
}

} // namespace

TEST(AttackReport, FormatsAlignedColumnsAndVerdicts)
{
    AttackResult safe;
    safe.attack = "cold-boot/reflash";
    safe.target = "volatile key in iRAM";
    safe.secretRecovered = false;
    const std::string line = formatResult(safe);
    EXPECT_NE(line.find("cold-boot/reflash"), std::string::npos);
    EXPECT_NE(line.find("volatile key in iRAM"), std::string::npos);
    EXPECT_NE(line.find("Safe"), std::string::npos);
    EXPECT_EQ(line.find("UNSAFE"), std::string::npos);

    AttackResult unsafe = safe;
    unsafe.secretRecovered = true;
    EXPECT_NE(formatResult(unsafe).find("UNSAFE"), std::string::npos);

    // Short fields are padded to their columns: verdict starts at the
    // same offset regardless of field contents.
    AttackResult other;
    other.attack = "dma";
    other.target = "key";
    EXPECT_EQ(formatResult(other).find("Safe"), line.find("Safe"));
}

TEST(AttackReport, EmptyFieldsStillFormat)
{
    const AttackResult blank; // all defaults
    const std::string line = formatResult(blank);
    EXPECT_NE(line.find("Safe"), std::string::npos);
}

TEST(AttackReport, OversizedFieldsAreTruncatedNotOverflowed)
{
    // The formatter writes through a fixed 256-byte buffer; pathological
    // field lengths must clamp, not corrupt.
    AttackResult huge;
    huge.attack = std::string(300, 'a');
    huge.target = std::string(300, 'b');
    huge.secretRecovered = true;
    const std::string line = formatResult(huge);
    EXPECT_LT(line.size(), 256u);
    EXPECT_EQ(line.substr(0, 10), std::string(10, 'a'));
}

TEST(DramScanner, EmptyAndOversizedNeedles)
{
    Soc soc(PlatformConfig::tegra3(4 * MiB));
    DramScanner scanner(soc);

    // An empty needle matches nothing (not everything).
    EXPECT_FALSE(scanner.dramContains({}));
    EXPECT_FALSE(scanner.iramContains({}));

    // A needle longer than the array cannot match.
    const std::vector<std::uint8_t> huge(soc.dramRaw().size() + 1, 0);
    EXPECT_FALSE(scanner.dramContains(huge));
}

TEST(DramScanner, PristineDramOnlyMatchesZeros)
{
    // Fresh DRAM cells are all-zero: any non-zero needle misses, while
    // a zero needle trivially hits.
    Soc soc(PlatformConfig::tegra3(4 * MiB));
    DramScanner scanner(soc);

    EXPECT_FALSE(scanner.dramContains(bytesOf("SENTRY-SECRET")));
    const std::vector<std::uint8_t> zeros(64, 0);
    EXPECT_TRUE(scanner.dramContains(zeros));
    EXPECT_EQ(scanner.dramPatternCount(zeros),
              soc.dramRaw().size() / zeros.size());
}

TEST(DramScanner, SecretAtTheVeryEndOfDramIsFound)
{
    Soc soc(PlatformConfig::tegra3(4 * MiB));
    const auto secret = bytesOf("edge-of-memory");
    soc.dram().writeCells(soc.dram().size() - secret.size(), secret.data(),
                          secret.size());
    EXPECT_TRUE(DramScanner(soc).dramContains(secret));
}

TEST(DramScanner, FullRemanenceSurvivesZeroSecondPowerLoss)
{
    // off_seconds == 0 is the full-remanence edge: every cell survives,
    // so the aligned pattern count is exactly preserved.
    Soc soc(PlatformConfig::tegra3(4 * MiB));
    const auto pattern = fromHex("a5c3e1f00f1e3c5a");
    soc.dram().fillCells(pattern);

    DramScanner scanner(soc);
    const std::size_t before = scanner.dramPatternCount(pattern);
    ASSERT_EQ(before, soc.dramRaw().size() / pattern.size());

    soc.dram().powerLoss(0.0, 22.0, soc.rng());
    EXPECT_EQ(scanner.dramPatternCount(pattern), before);
}

TEST(DramScanner, LongPowerLossDecaysAlmostEverything)
{
    Soc soc(PlatformConfig::tegra3(4 * MiB));
    const auto pattern = fromHex("a5c3e1f00f1e3c5a");
    soc.dram().fillCells(pattern);
    const std::size_t before =
        DramScanner(soc).dramPatternCount(pattern);

    // 60 s without power at room temperature: Table 2's trend says
    // essentially no 8-byte unit survives intact.
    soc.dram().powerLoss(60.0, 22.0, soc.rng());
    const std::size_t after = DramScanner(soc).dramPatternCount(pattern);
    EXPECT_LT(after, before / 1000 + 1);
}

TEST(DramScanner, OverlappingCopiesCountOncePerAlignedSlot)
{
    // Two copies that overlap an alignment boundary: the byte-granular
    // search sees both, the aligned Table 2 grep counts only the slot
    // that matches exactly.
    Soc soc(PlatformConfig::tegra3(4 * MiB));
    const auto pattern = fromHex("0102030405060708");

    // Aligned copy at slot 16, plus a straddling copy at offset 260
    // (not a multiple of 8).
    soc.dram().writeCells(16 * pattern.size(), pattern.data(),
                          pattern.size());
    soc.dram().writeCells(260, pattern.data(), pattern.size());

    DramScanner scanner(soc);
    EXPECT_TRUE(scanner.dramContains(pattern));
    EXPECT_EQ(scanner.dramPatternCount(pattern), 1u);
}

TEST(DramScanner, SelfOverlappingPatternCountsDisjointSlots)
{
    // A periodic needle ("abab") inside a longer run: aligned,
    // non-overlapping stride counting must not double-count shifted
    // occurrences.
    std::vector<std::uint8_t> buf(16, 0);
    const auto ab = bytesOf("abab");
    fillPattern({buf.data(), 8}, ab); // "abababab" then zeros
    EXPECT_EQ(countPattern(buf, ab), 2u);
    EXPECT_TRUE(containsBytes(buf, bytesOf("baba")));
    EXPECT_EQ(countPattern(buf, bytesOf("baba")), 0u);
}

TEST(DramScanner, MemoisedSearchFollowsItsNeedle)
{
    // A memo answers for the needle it was filled with: handed a
    // different needle it starts over, so a needle already sitting in
    // pages the memo had passed over is still found.
    Soc soc(PlatformConfig::tegra3(4 * MiB));
    const auto first = bytesOf("first-needle");
    const auto second = bytesOf("second-needle");
    soc.dram().writeCells(PAGE_SIZE - 4, second.data(), second.size());

    DramScanner scanner(soc);
    ScanMemo memo;
    EXPECT_FALSE(scanner.dramContains(first, &memo));
    EXPECT_EQ(memo.absentAt, soc.dram().cells().generation());
    EXPECT_FALSE(scanner.dramContains(first, &memo)); // nothing changed
    EXPECT_TRUE(scanner.dramContains(second, &memo));
    EXPECT_EQ(memo.absentAt, 0u); // a hit is not memoised

    // Written after the memo's generation, across a seam: found.
    EXPECT_FALSE(scanner.dramContains(first, &memo));
    soc.dram().writeCells(3 * PAGE_SIZE - 5, first.data(), first.size());
    EXPECT_TRUE(scanner.dramContains(first, &memo));
    EXPECT_TRUE(scanner.dramContains(first));
}
