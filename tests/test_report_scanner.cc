/**
 * @file
 * Edge-path coverage for the attack-report formatter and the in-place
 * DRAM grep (hw::CowBytes contains / countPattern, as the invariant
 * checker and the cold-boot attack call them): oversized report fields
 * (the snprintf truncation path), empty/oversized needles, pristine
 * (all-zero) DRAM, full-remanence and fully-decayed power loss, and
 * overlapping pattern placements versus the aligned Table 2 grep.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "attacks/v2/attack.hh"
#include "common/bytes.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"

using namespace sentry;
using namespace sentry::attacks;
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
    v2::AttackOutcome safe;
    safe.attack = "cold-boot/reflash";
    safe.target = "volatile key in iRAM";
    safe.secretRecovered = false;
    const std::string line = formatResult(safe);
    EXPECT_NE(line.find("cold-boot/reflash"), std::string::npos);
    EXPECT_NE(line.find("volatile key in iRAM"), std::string::npos);
    EXPECT_NE(line.find("Safe"), std::string::npos);
    EXPECT_EQ(line.find("UNSAFE"), std::string::npos);

    v2::AttackOutcome unsafe = safe;
    unsafe.secretRecovered = true;
    EXPECT_NE(formatResult(unsafe).find("UNSAFE"), std::string::npos);

    // Short fields are padded to their columns: verdict starts at the
    // same offset regardless of field contents.
    v2::AttackOutcome other;
    other.attack = "dma";
    other.target = "key";
    EXPECT_EQ(formatResult(other).find("Safe"), line.find("Safe"));
}

TEST(AttackReport, EmptyFieldsStillFormat)
{
    const v2::AttackOutcome blank; // all defaults
    const std::string line = formatResult(blank);
    EXPECT_NE(line.find("Safe"), std::string::npos);
}

TEST(AttackReport, OversizedFieldsAreTruncatedNotOverflowed)
{
    // The formatter writes through a fixed 256-byte buffer; pathological
    // field lengths must clamp, not corrupt.
    v2::AttackOutcome huge;
    huge.attack = std::string(300, 'a');
    huge.target = std::string(300, 'b');
    huge.secretRecovered = true;
    const std::string line = formatResult(huge);
    EXPECT_LT(line.size(), 256u);
    EXPECT_EQ(line.substr(0, 10), std::string(10, 'a'));
}

TEST(DramGrep, EmptyAndOversizedNeedles)
{
    Soc soc(PlatformConfig::tegra3(4 * MiB));
    const CowBytes &dram = soc.dram().cells();

    // An empty needle matches nothing (not everything).
    EXPECT_FALSE(dram.contains({}));
    EXPECT_FALSE(soc.iram().cells().contains({}));

    // A needle longer than the array cannot match.
    const std::vector<std::uint8_t> huge(soc.dram().size() + 1, 0);
    EXPECT_FALSE(dram.contains(huge));
}

TEST(DramGrep, PristineDramOnlyMatchesZeros)
{
    // Fresh DRAM cells are all-zero: any non-zero needle misses, while
    // a zero needle trivially hits.
    Soc soc(PlatformConfig::tegra3(4 * MiB));
    const CowBytes &dram = soc.dram().cells();

    EXPECT_FALSE(dram.contains(bytesOf("SENTRY-SECRET")));
    const std::vector<std::uint8_t> zeros(64, 0);
    EXPECT_TRUE(dram.contains(zeros));
    EXPECT_EQ(dram.countPattern(zeros), soc.dram().size() / zeros.size());
}

TEST(DramGrep, SecretAtTheVeryEndOfDramIsFound)
{
    Soc soc(PlatformConfig::tegra3(4 * MiB));
    const auto secret = bytesOf("edge-of-memory");
    soc.dram().writeCells(soc.dram().size() - secret.size(), secret.data(),
                          secret.size());
    EXPECT_TRUE(soc.dram().cells().contains(secret));
}

TEST(DramGrep, FullRemanenceSurvivesZeroSecondPowerLoss)
{
    // off_seconds == 0 is the full-remanence edge: every cell survives,
    // so the aligned pattern count is exactly preserved.
    Soc soc(PlatformConfig::tegra3(4 * MiB));
    const auto pattern = fromHex("a5c3e1f00f1e3c5a");
    soc.dram().fillCells(pattern);

    const CowBytes &dram = soc.dram().cells();
    const std::size_t before = dram.countPattern(pattern);
    ASSERT_EQ(before, soc.dram().size() / pattern.size());

    soc.dram().powerLoss(0.0, 22.0, soc.rng());
    EXPECT_EQ(dram.countPattern(pattern), before);
}

TEST(DramGrep, LongPowerLossDecaysAlmostEverything)
{
    Soc soc(PlatformConfig::tegra3(4 * MiB));
    const auto pattern = fromHex("a5c3e1f00f1e3c5a");
    soc.dram().fillCells(pattern);
    const CowBytes &dram = soc.dram().cells();
    const std::size_t before = dram.countPattern(pattern);

    // 60 s without power at room temperature: Table 2's trend says
    // essentially no 8-byte unit survives intact.
    soc.dram().powerLoss(60.0, 22.0, soc.rng());
    EXPECT_LT(dram.countPattern(pattern), before / 1000 + 1);
}

TEST(DramGrep, OverlappingCopiesCountOncePerAlignedSlot)
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

    const CowBytes &dram = soc.dram().cells();
    EXPECT_TRUE(dram.contains(pattern));
    EXPECT_EQ(dram.countPattern(pattern), 1u);
}

TEST(DramGrep, SelfOverlappingPatternCountsDisjointSlots)
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
