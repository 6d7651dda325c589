/**
 * @file
 * CowBytes / CowImage unit tests: the page-granular copy-on-write
 * array backing Dram and Iram for snapshot/fork.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/bytes.hh"
#include "common/rng.hh"
#include "hw/cow_bytes.hh"

using namespace sentry;
using namespace sentry::hw;

namespace
{

std::vector<std::uint8_t>
readAll(const CowBytes &bytes)
{
    std::vector<std::uint8_t> out(bytes.size());
    bytes.read(0, out.data(), out.size());
    return out;
}

std::vector<std::uint8_t>
pattern(std::size_t len, std::uint8_t salt)
{
    std::vector<std::uint8_t> out(len);
    for (std::size_t i = 0; i < len; ++i)
        out[i] = static_cast<std::uint8_t>(salt + i * 7);
    return out;
}

constexpr std::size_t RE_ADOPT_PAGES = 6;

/** An image with Zero pages 0 and 3..5 and written pages 1..2. */
std::shared_ptr<const CowImage>
mixedImage(std::uint8_t salt)
{
    CowBytes source(RE_ADOPT_PAGES * PAGE_SIZE);
    const auto data = pattern(2 * PAGE_SIZE, salt);
    source.write(PAGE_SIZE, data.data(), data.size());
    return source.freeze();
}

/** Privatize pages 0 and 1 (one write across their seam) and page 4. */
void
scribble(CowBytes &bytes)
{
    const auto edit = pattern(PAGE_SIZE, 0xe1);
    bytes.write(PAGE_SIZE / 2, edit.data(), edit.size());
    bytes.write(4 * PAGE_SIZE + 7, edit.data(), 100);
}

/** Expect @p bytes to equal a freshly constructed array that adopted
 * @p image: the same bytes and no Private page. */
void
expectFreshAdopt(const CowBytes &bytes,
                 const std::shared_ptr<const CowImage> &image)
{
    CowBytes fresh(bytes.size());
    fresh.adopt(image);
    EXPECT_EQ(readAll(bytes), readAll(fresh));
    EXPECT_EQ(bytes.privatePages(), 0u);
    for (std::size_t page = 0; page < bytes.pageCount(); ++page)
        EXPECT_FALSE(bytes.pageIsPrivate(page)) << "page " << page;
}

} // namespace

TEST(CowBytes, StartsZeroWithNoPrivatePages)
{
    CowBytes bytes(4 * PAGE_SIZE);
    EXPECT_EQ(bytes.size(), 4 * PAGE_SIZE);
    EXPECT_EQ(bytes.pageCount(), 4u);
    EXPECT_EQ(bytes.privatePages(), 0u);

    const auto all = readAll(bytes);
    for (std::uint8_t b : all)
        ASSERT_EQ(b, 0u);
}

TEST(CowBytes, WritePrivatizesOnlyTouchedPages)
{
    CowBytes bytes(8 * PAGE_SIZE);
    const auto data = pattern(64, 0x11);
    bytes.write(2 * PAGE_SIZE + 100, data.data(), data.size());

    EXPECT_EQ(bytes.privatePages(), 1u);
    EXPECT_TRUE(bytes.pageIsPrivate(2));
    EXPECT_FALSE(bytes.pageIsPrivate(1));
    EXPECT_FALSE(bytes.pageIsPrivate(3));

    std::vector<std::uint8_t> back(data.size());
    bytes.read(2 * PAGE_SIZE + 100, back.data(), back.size());
    EXPECT_EQ(back, data);

    // Rewriting the same page does not inflate the dirty count.
    bytes.write(2 * PAGE_SIZE, data.data(), data.size());
    EXPECT_EQ(bytes.privatePages(), 1u);
}

TEST(CowBytes, CrossPageReadWriteHitSlowPath)
{
    CowBytes bytes(4 * PAGE_SIZE);
    const auto data = pattern(PAGE_SIZE + 512, 0x23);
    bytes.write(PAGE_SIZE - 256, data.data(), data.size());
    EXPECT_EQ(bytes.privatePages(), 3u); // pages 0, 1, 2

    std::vector<std::uint8_t> back(data.size());
    bytes.read(PAGE_SIZE - 256, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(CowBytes, PartialLastPageRoundTrips)
{
    const std::size_t size = 2 * PAGE_SIZE + 100;
    CowBytes bytes(size);
    EXPECT_EQ(bytes.pageCount(), 3u);

    const auto data = pattern(100, 0x42);
    bytes.write(2 * PAGE_SIZE, data.data(), data.size());
    const auto image = bytes.freeze();
    EXPECT_EQ(image->size(), size);

    CowBytes fork(size);
    fork.adopt(image);
    std::vector<std::uint8_t> back(100);
    fork.read(2 * PAGE_SIZE, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(CowBytes, AdoptSharesImageAndResetsDirtyBitmap)
{
    CowBytes source(4 * PAGE_SIZE);
    const auto data = pattern(PAGE_SIZE, 0x55);
    source.write(PAGE_SIZE, data.data(), data.size());
    const auto image = source.freeze();

    CowBytes fork(4 * PAGE_SIZE);
    fork.write(0, data.data(), data.size()); // dirt, dropped by adopt
    fork.adopt(image);
    EXPECT_EQ(fork.privatePages(), 0u);
    EXPECT_EQ(readAll(fork), readAll(source));
}

TEST(CowBytes, SiblingWritesAreIsolated)
{
    CowBytes source(4 * PAGE_SIZE);
    const auto base = pattern(PAGE_SIZE, 0x66);
    source.write(0, base.data(), base.size());
    const auto image = source.freeze();

    CowBytes left(4 * PAGE_SIZE);
    CowBytes right(4 * PAGE_SIZE);
    left.adopt(image);
    right.adopt(image);

    const auto edit = pattern(128, 0x77);
    left.write(64, edit.data(), edit.size());

    // Right sibling and the image still see the original bytes.
    std::vector<std::uint8_t> back(128);
    right.read(64, back.data(), back.size());
    std::vector<std::uint8_t> expect(base.begin() + 64,
                                     base.begin() + 64 + 128);
    EXPECT_EQ(back, expect);
    EXPECT_EQ(0, std::memcmp(image->page(0) + 64, expect.data(), 128));
    EXPECT_EQ(left.privatePages(), 1u);
    EXPECT_EQ(right.privatePages(), 0u);
}

TEST(CowBytes, FreezeDoesNotDisturbSourceOrLaterWrites)
{
    CowBytes source(4 * PAGE_SIZE);
    const auto before = pattern(PAGE_SIZE, 0x88);
    source.write(0, before.data(), before.size());
    const std::size_t dirtyBefore = source.privatePages();
    const auto image = source.freeze();
    EXPECT_EQ(source.privatePages(), dirtyBefore);

    // Snapshot immutability: mutate the source after freezing.
    const auto after = pattern(PAGE_SIZE, 0x99);
    source.write(0, after.data(), after.size());
    EXPECT_EQ(0,
              std::memcmp(image->page(0), before.data(), PAGE_SIZE));
}

TEST(CowBytes, FreezeOfForkChainsImages)
{
    CowBytes gen0(4 * PAGE_SIZE);
    const auto a = pattern(PAGE_SIZE, 0x10);
    gen0.write(0, a.data(), a.size());
    const auto image0 = gen0.freeze();

    CowBytes gen1(4 * PAGE_SIZE);
    gen1.adopt(image0);
    const auto b = pattern(PAGE_SIZE, 0x20);
    gen1.write(PAGE_SIZE, b.data(), b.size());
    const auto image1 = gen1.freeze();

    CowBytes gen2(4 * PAGE_SIZE);
    gen2.adopt(image1);
    std::vector<std::uint8_t> back(PAGE_SIZE);
    gen2.read(0, back.data(), back.size());
    EXPECT_EQ(back, a); // page shared through the image chain
    gen2.read(PAGE_SIZE, back.data(), back.size());
    EXPECT_EQ(back, b);
}

TEST(CowBytes, ZeroAllClearsEveryStateWithoutInvalidatingSpans)
{
    CowBytes bytes(4 * PAGE_SIZE);
    const auto data = pattern(PAGE_SIZE, 0x31);
    bytes.write(0, data.data(), data.size()); // private page

    CowBytes source(4 * PAGE_SIZE);
    source.write(PAGE_SIZE, data.data(), data.size());
    bytes.adopt(source.freeze()); // page 1 shared
    bytes.write(0, data.data(), data.size()); // page 0 private again

    std::span<std::uint8_t> span = bytes.contiguous();
    bytes.zeroAll();
    for (std::uint8_t b : readAll(bytes))
        ASSERT_EQ(b, 0u);
    // The old span stays valid and observes the zeroing for pages that
    // were private (the pre-COW memset semantics).
    EXPECT_EQ(span[0], 0u);
}

TEST(CowBytes, ContiguousMaterializesAndStaysCoherent)
{
    CowBytes source(4 * PAGE_SIZE);
    const auto data = pattern(PAGE_SIZE, 0x47);
    source.write(3 * PAGE_SIZE, data.data(), data.size());

    CowBytes fork(4 * PAGE_SIZE);
    fork.adopt(source.freeze());
    std::span<std::uint8_t> span = fork.contiguous();
    EXPECT_EQ(fork.privatePages(), fork.pageCount());
    EXPECT_EQ(0, std::memcmp(span.data() + 3 * PAGE_SIZE, data.data(),
                             PAGE_SIZE));

    // Writes through the API land in the materialized storage...
    const std::uint8_t byte = 0xab;
    fork.write(123, &byte, 1);
    EXPECT_EQ(span[123], 0xab);
    // ...and writes through the span are visible to reads.
    span[456] = 0xcd;
    std::uint8_t back = 0;
    fork.read(456, &back, 1);
    EXPECT_EQ(back, 0xcd);
}

TEST(CowBytes, ReAdoptSameImageAfterWritesMatchesFreshAdopt)
{
    const auto image = mixedImage(0x21);
    CowBytes bytes(RE_ADOPT_PAGES * PAGE_SIZE);
    bytes.adopt(image);
    for (int round = 0; round < 2; ++round) {
        scribble(bytes);
        ASSERT_EQ(bytes.privatePages(), 3u) << "round " << round;
        bytes.adopt(image);
        expectFreshAdopt(bytes, image);
    }
}

TEST(CowBytes, ReAdoptSameImageAfterContiguousMatchesFreshAdopt)
{
    const auto image = mixedImage(0x22);
    CowBytes bytes(RE_ADOPT_PAGES * PAGE_SIZE);
    bytes.adopt(image);
    scribble(bytes);
    std::span<std::uint8_t> span = bytes.contiguous();
    span[2 * PAGE_SIZE] ^= 0xff; // a Shared page, written via the span
    span[5 * PAGE_SIZE] = 0x5a;  // a Zero page, written via the span
    bytes.adopt(image);
    expectFreshAdopt(bytes, image);
}

TEST(CowBytes, ReAdoptSameImageAfterZeroAllMatchesFreshAdopt)
{
    const auto image = mixedImage(0x23);
    CowBytes bytes(RE_ADOPT_PAGES * PAGE_SIZE);
    bytes.adopt(image);
    scribble(bytes);
    bytes.zeroAll(); // also zeroes page 2, which was never privatized
    bytes.adopt(image);
    expectFreshAdopt(bytes, image);
}

TEST(CowBytes, AdoptingADifferentImageMatchesFreshAdopt)
{
    const auto first = mixedImage(0x24);
    CowBytes other(RE_ADOPT_PAGES * PAGE_SIZE);
    const auto data = pattern(PAGE_SIZE, 0x25);
    other.write(3 * PAGE_SIZE, data.data(), data.size());
    const auto second = other.freeze();

    CowBytes bytes(RE_ADOPT_PAGES * PAGE_SIZE);
    bytes.adopt(first);
    scribble(bytes);
    bytes.adopt(second);
    expectFreshAdopt(bytes, second);
    bytes.adopt(first);
    expectFreshAdopt(bytes, first);
}

TEST(CowBytesDeath, AdoptRejectsSizeMismatch)
{
    CowBytes small(2 * PAGE_SIZE);
    const auto image = small.freeze();
    CowBytes big(4 * PAGE_SIZE);
    EXPECT_DEATH(big.adopt(image), "size");
}

TEST(CowBytesDeath, ZeroSizeRejected)
{
    EXPECT_DEATH(CowBytes bytes(0), "");
}

// ---------------------------------------------------------------------
// Write stamps and the in-place search.
// ---------------------------------------------------------------------

namespace
{

/** The reference answer: a byte-granular grep of the contents. */
bool
fullGrep(const CowBytes &bytes, const std::vector<std::uint8_t> &needle)
{
    return containsBytes(readAll(bytes), needle);
}

/**
 * Expect @p needle to be absent now, then let @p store put it in place:
 * the search from the generation it was found absent at must see it,
 * as must the full search and the reference grep.
 */
template <typename Store>
void
expectStoreFound(CowBytes &bytes, const std::vector<std::uint8_t> &needle,
                 Store store)
{
    ASSERT_FALSE(fullGrep(bytes, needle));
    ASSERT_FALSE(bytes.contains(needle));
    const std::uint64_t absentAt = bytes.generation();
    store();
    EXPECT_TRUE(fullGrep(bytes, needle));
    EXPECT_TRUE(bytes.contains(needle));
    EXPECT_TRUE(bytes.contains(needle, absentAt));
}

} // namespace

TEST(CowBytesStamps, WritesStampOnlyTheTouchedPages)
{
    CowBytes bytes(4 * PAGE_SIZE);
    const std::uint64_t before = bytes.generation();
    for (std::size_t page = 0; page < 4; ++page)
        EXPECT_LE(bytes.pageStamp(page), before);

    const auto data = pattern(100, 0x11);
    bytes.write(2 * PAGE_SIZE - 50, data.data(), data.size());
    EXPECT_GT(bytes.generation(), before);
    EXPECT_LE(bytes.pageStamp(0), before);
    EXPECT_GT(bytes.pageStamp(1), before);
    EXPECT_GT(bytes.pageStamp(2), before);
    EXPECT_LE(bytes.pageStamp(3), before);
}

TEST(CowBytesStamps, ReadsFreezeAndContiguousDoNotStamp)
{
    CowBytes bytes(4 * PAGE_SIZE);
    const auto data = pattern(PAGE_SIZE, 0x12);
    bytes.write(PAGE_SIZE, data.data(), data.size());
    const std::uint64_t before = bytes.generation();
    std::vector<std::uint8_t> back(16);
    bytes.read(PAGE_SIZE, back.data(), back.size());
    bytes.freeze();
    bytes.contiguous();
    bytes.contains(data);
    bytes.countPattern(data);
    bytes.firstNonZero();
    EXPECT_EQ(bytes.generation(), before);
}

TEST(CowBytesStamps, AdoptStampsEveryReboundPage)
{
    const auto image = mixedImage(0x13);
    CowBytes bytes(RE_ADOPT_PAGES * PAGE_SIZE);
    bytes.adopt(image);
    scribble(bytes); // privatizes pages 0, 1 and 4
    const std::uint64_t before = bytes.generation();

    // Re-adopting the held image rebinds (and stamps) only those.
    bytes.adopt(image);
    for (std::size_t page = 0; page < RE_ADOPT_PAGES; ++page) {
        const bool rebound = page == 0 || page == 1 || page == 4;
        EXPECT_EQ(bytes.pageStamp(page) > before, rebound) << page;
    }

    // A different image rebinds every page.
    const std::uint64_t beforeOther = bytes.generation();
    bytes.adopt(mixedImage(0x14));
    for (std::size_t page = 0; page < RE_ADOPT_PAGES; ++page)
        EXPECT_GT(bytes.pageStamp(page), beforeOther) << page;
}

TEST(CowBytesStamps, ZeroAllAndRewritePagesStampEveryPage)
{
    CowBytes bytes(3 * PAGE_SIZE + 10);
    std::uint64_t before = bytes.generation();
    bytes.zeroAll();
    for (std::size_t page = 0; page < bytes.pageCount(); ++page)
        EXPECT_GT(bytes.pageStamp(page), before) << page;

    before = bytes.generation();
    std::vector<std::size_t> lengths;
    bytes.rewritePages([&](std::size_t offset, std::span<std::uint8_t> page) {
        EXPECT_EQ(offset, lengths.size() * PAGE_SIZE);
        lengths.push_back(page.size());
        std::memset(page.data(), 0x5a, page.size());
    });
    EXPECT_EQ(lengths, (std::vector<std::size_t>{PAGE_SIZE, PAGE_SIZE,
                                                 PAGE_SIZE, 10}));
    for (std::size_t page = 0; page < bytes.pageCount(); ++page)
        EXPECT_GT(bytes.pageStamp(page), before) << page;
    EXPECT_EQ(readAll(bytes),
              std::vector<std::uint8_t>(bytes.size(), 0x5a));
}

TEST(CowBytesStamps, UnstampedSpanWritesAreOnlySeenByAFullSearch)
{
    // Why Dram has no mutable span: a store through contiguous() moves
    // no stamp, so only the generation-0 search sees it.
    CowBytes bytes(4 * PAGE_SIZE);
    const auto needle = pattern(16, 0x15);
    const std::uint64_t absentAt = bytes.generation();
    std::span<std::uint8_t> span = bytes.contiguous();
    std::memcpy(span.data() + 2 * PAGE_SIZE + 8, needle.data(),
                needle.size());
    EXPECT_TRUE(bytes.contains(needle));
    EXPECT_FALSE(bytes.contains(needle, absentAt));
}

TEST(CowBytesSearch, EmptyAndOversizedNeedlesAreNeverFound)
{
    CowBytes bytes(2 * PAGE_SIZE);
    EXPECT_FALSE(bytes.contains({}));
    EXPECT_FALSE(
        bytes.contains(std::vector<std::uint8_t>(2 * PAGE_SIZE + 1, 0)));
    EXPECT_TRUE(
        bytes.contains(std::vector<std::uint8_t>(2 * PAGE_SIZE, 0)));
}

TEST(CowBytesSearch, NeedleStraddlingZeroThenPrivateSeam)
{
    // Zero head in a Zero page, tail in a Private one.
    CowBytes bytes(4 * PAGE_SIZE);
    const std::vector<std::uint8_t> needle = {0, 0, 0, 0xab, 0xcd};
    expectStoreFound(bytes, needle, [&] {
        const std::uint8_t tail[] = {0xab, 0xcd};
        bytes.write(2 * PAGE_SIZE, tail, sizeof tail);
    });
    EXPECT_FALSE(bytes.pageIsPrivate(1)); // the head page stayed Zero
}

TEST(CowBytesSearch, NeedleStraddlingSharedThenPrivateSeam)
{
    CowBytes source(4 * PAGE_SIZE);
    const auto head = pattern(PAGE_SIZE, 0x16);
    source.write(PAGE_SIZE, head.data(), head.size());
    CowBytes bytes(4 * PAGE_SIZE);
    bytes.adopt(source.freeze());

    std::vector<std::uint8_t> needle(head.end() - 7, head.end());
    const std::vector<std::uint8_t> tail = {0x01, 0x02, 0x03};
    needle.insert(needle.end(), tail.begin(), tail.end());
    expectStoreFound(bytes, needle, [&] {
        bytes.write(2 * PAGE_SIZE, tail.data(), tail.size());
    });
    EXPECT_FALSE(bytes.pageIsPrivate(1)); // still Shared
}

TEST(CowBytesSearch, NeedleStraddlingPrivateThenZeroSeam)
{
    // Zero tail: the needle ends in a page that was never written.
    CowBytes bytes(4 * PAGE_SIZE);
    const std::vector<std::uint8_t> needle = {0x71, 0x72, 0, 0, 0, 0};
    expectStoreFound(bytes, needle, [&] {
        bytes.write(PAGE_SIZE - 2, needle.data(), 2);
    });
    EXPECT_FALSE(bytes.pageIsPrivate(1));
}

TEST(CowBytesSearch, NeedleStraddlingSharedPagesOfTwoImages)
{
    // Page 0 comes from the first image, page 1 from the second (which
    // forked the first), and the needle crosses their seam. Nothing in
    // `bytes` is written, so the adopt is the store that brings it in.
    const auto front = pattern(PAGE_SIZE, 0x17);
    const auto back = pattern(PAGE_SIZE, 0x18);
    CowBytes gen0(2 * PAGE_SIZE);
    gen0.write(0, front.data(), front.size());
    CowBytes gen1(2 * PAGE_SIZE);
    gen1.adopt(gen0.freeze());
    gen1.write(PAGE_SIZE, back.data(), back.size());
    const auto image = gen1.freeze();

    std::vector<std::uint8_t> needle(front.end() - 5, front.end());
    needle.insert(needle.end(), back.begin(), back.begin() + 6);
    CowBytes bytes(2 * PAGE_SIZE);
    expectStoreFound(bytes, needle, [&] { bytes.adopt(image); });
    EXPECT_EQ(bytes.privatePages(), 0u);
}

TEST(CowBytesSearch, LastPartialPageOfAnIramSizedArray)
{
    const std::size_t size = 256 * KiB + 100;
    CowBytes bytes(size);
    ASSERT_EQ(bytes.pageCount(), 65u);
    const auto needle = pattern(40, 0x19);
    // Across the seam into the partial page, then at its very end.
    expectStoreFound(bytes, needle, [&] {
        bytes.write(256 * KiB - 20, needle.data(), needle.size());
    });
    const auto last = pattern(30, 0x1a);
    expectStoreFound(bytes, last, [&] {
        bytes.write(size - last.size(), last.data(), last.size());
    });
}

TEST(CowBytesSearch, AllZeroAndSingleByteNeedles)
{
    CowBytes bytes(3 * PAGE_SIZE);
    const std::vector<std::uint8_t> zeros(8, 0);
    EXPECT_TRUE(bytes.contains(zeros)); // every Zero page holds it

    // Fill every byte non-zero: the zero needle is gone...
    bytes.rewritePages([](std::size_t, std::span<std::uint8_t> page) {
        std::memset(page.data(), 0xee, page.size());
    });
    EXPECT_FALSE(bytes.contains(zeros));
    // ...until a run of zeros lands across a seam.
    expectStoreFound(bytes, zeros, [&] {
        bytes.write(2 * PAGE_SIZE - 3, zeros.data(), zeros.size());
    });

    const std::vector<std::uint8_t> one = {0x42};
    expectStoreFound(bytes, one, [&] {
        bytes.write(PAGE_SIZE - 1, one.data(), one.size());
    });
}

TEST(CowBytesSearch, NeedleLongerThanAPage)
{
    CowBytes bytes(5 * PAGE_SIZE);
    const auto needle = pattern(PAGE_SIZE + 300, 0x1b);
    // Spans pages 0, 1 and 2; only page 1 is wholly inside it.
    expectStoreFound(bytes, needle, [&] {
        bytes.write(PAGE_SIZE - 150, needle.data(), needle.size());
    });
    // Overwriting its middle page removes it again; re-writing only
    // that page restores it, and the incremental search sees that.
    const std::vector<std::uint8_t> blank(PAGE_SIZE, 0);
    bytes.write(PAGE_SIZE, blank.data(), blank.size());
    expectStoreFound(bytes, needle, [&] {
        bytes.write(PAGE_SIZE, needle.data() + 150, PAGE_SIZE);
    });
}

TEST(CowBytesSearch, CountPatternMatchesTheContiguousCount)
{
    // Stride sizes that divide the page and ones that do not (strides
    // then straddle seams), over Zero, Shared and Private pages and a
    // partial last page.
    CowBytes source(5 * PAGE_SIZE + 77);
    const auto fill = pattern(3 * PAGE_SIZE, 0x1c);
    source.write(PAGE_SIZE, fill.data(), fill.size());
    CowBytes bytes(5 * PAGE_SIZE + 77);
    bytes.adopt(source.freeze());
    for (const std::size_t len : {1u, 3u, 8u, 7u, 13u, 4096u, 5000u}) {
        const std::vector<std::uint8_t> zeros(len, 0);
        std::vector<std::uint8_t> stride(len, 0x5c);
        // Plant aligned copies in every page, including the seams.
        for (std::size_t off = 0; off + len <= bytes.size();
             off += len * 37)
            bytes.write(off, stride.data(), stride.size());
        const auto all = readAll(bytes);
        EXPECT_EQ(bytes.countPattern(stride), countPattern(all, stride))
            << len;
        EXPECT_EQ(bytes.countPattern(zeros), countPattern(all, zeros))
            << len;
    }
}

TEST(CowBytesSearch, CountPatternReadsStridesAcrossMixedSeams)
{
    // A stride whose head is in a Private page and whose tail is in a
    // Shared one: the two halves live in different storage, so the
    // stride has to be read across the seam, not from either page.
    const std::vector<std::uint8_t> stride = {1, 2, 3, 4, 5, 6, 7};
    const std::size_t seam = 2 * PAGE_SIZE;
    const std::size_t at = seam / stride.size() * stride.size(); // < seam
    const std::size_t head = seam - at;
    CowBytes source(4 * PAGE_SIZE);
    const std::vector<std::uint8_t> filler(2 * PAGE_SIZE, 0xaa);
    source.write(PAGE_SIZE, filler.data(), filler.size());
    source.write(seam, stride.data() + head, stride.size() - head);

    CowBytes bytes(4 * PAGE_SIZE);
    bytes.adopt(source.freeze());
    bytes.write(at, stride.data(), head);
    ASSERT_TRUE(bytes.pageIsPrivate(1));
    ASSERT_FALSE(bytes.pageIsPrivate(2));
    EXPECT_EQ(bytes.countPattern(stride), 1u);
    EXPECT_EQ(countPattern(readAll(bytes), stride), 1u);
}

TEST(CowBytesSearch, FirstNonZeroWalksPagesInPlace)
{
    CowBytes bytes(4 * PAGE_SIZE + 12);
    EXPECT_EQ(bytes.firstNonZero(), bytes.size());
    const std::vector<std::uint8_t> zeros(PAGE_SIZE, 0);
    bytes.write(PAGE_SIZE, zeros.data(), zeros.size()); // Private, zero
    EXPECT_EQ(bytes.firstNonZero(), bytes.size());
    const std::uint8_t one = 1;
    bytes.write(4 * PAGE_SIZE + 11, &one, 1);
    EXPECT_EQ(bytes.firstNonZero(), 4 * PAGE_SIZE + 11);
    bytes.write(2 * PAGE_SIZE + 5, &one, 1);
    EXPECT_EQ(bytes.firstNonZero(), 2 * PAGE_SIZE + 5);
    EXPECT_EQ(bytes.privatePages(), 3u); // no page was materialized
}

TEST(CowBytesSearch, RandomOperationsKeepTheMemoisedAnswerExact)
{
    // A plain vector models the contents; every operation is applied to
    // both. After each one, every needle's memoised incremental answer
    // (searched from the generation it was last found absent at) must
    // equal a grep of the model, and so must the full search.
    const std::size_t size = 6 * PAGE_SIZE + 123;
    CowBytes bytes(size);
    std::vector<std::uint8_t> model(size, 0);

    Rng rng(0xc0ffee);
    const auto randomBytes = [&](std::size_t len) {
        std::vector<std::uint8_t> out(len);
        // Odd bytes only, so the even-byte needles appear only where
        // they are planted.
        for (auto &b : out)
            b = static_cast<std::uint8_t>(rng.next64() | 1);
        return out;
    };
    std::vector<std::vector<std::uint8_t>> needles = {
        randomBytes(16),
        {0, 0, 0x9a, 0x9b, 0x9c}, // zero head
        {0x9d, 0x9e, 0, 0},       // zero tail
        {0x98},                   // one byte
        std::vector<std::uint8_t>(12, 0),
        randomBytes(PAGE_SIZE + 40), // longer than a page
    };
    std::vector<std::uint64_t> absentAt(needles.size(), 0);

    // Images to adopt, each with its model contents.
    std::vector<std::pair<std::shared_ptr<const CowImage>,
                          std::vector<std::uint8_t>>>
        images;
    images.emplace_back(bytes.freeze(), model);

    const auto store = [&](std::size_t off,
                           const std::vector<std::uint8_t> &data) {
        bytes.write(off, data.data(), data.size());
        std::copy(data.begin(), data.end(), model.begin() + off);
    };
    // An offset that puts [off, off + len) across a random seam about
    // half the time.
    const auto offsetFor = [&](std::size_t len) {
        if (len >= size)
            return std::size_t{0};
        if (rng.chance(0.5)) {
            const std::size_t seam =
                (1 + rng.below(bytes.pageCount() - 1)) * PAGE_SIZE;
            const std::size_t back = rng.below(len);
            if (seam >= back && seam - back + len <= size)
                return seam - back;
        }
        return static_cast<std::size_t>(rng.below(size - len + 1));
    };

    for (int op = 0; op < 3000; ++op) {
        const std::uint64_t kind = rng.below(100);
        if (kind < 35) {
            const std::size_t len = 1 + rng.below(2 * PAGE_SIZE);
            store(offsetFor(len), randomBytes(len));
        } else if (kind < 60) {
            const auto &needle = needles[rng.below(needles.size())];
            store(offsetFor(needle.size()), needle);
        } else if (kind < 70) {
            // Remove: zero a run (which may also plant zero needles).
            const std::size_t len = 1 + rng.below(64);
            store(offsetFor(len), std::vector<std::uint8_t>(len, 0));
        } else if (kind < 78) {
            const auto &[image, contents] =
                images[rng.below(images.size())];
            bytes.adopt(image);
            model = contents;
        } else if (kind < 83) {
            if (images.size() < 6)
                images.emplace_back(bytes.freeze(), model);
        } else if (kind < 87) {
            bytes.zeroAll();
            std::fill(model.begin(), model.end(), 0);
        } else if (kind < 93) {
            // Stamped bulk write: a few bytes in every page.
            const std::uint8_t salt = static_cast<std::uint8_t>(rng.next64());
            bytes.rewritePages([&](std::size_t off,
                                   std::span<std::uint8_t> page) {
                page[off % 97 % page.size()] = salt;
                model[off + off % 97 % page.size()] = salt;
            });
        } else {
            // Materialize: page states change, contents do not.
            const std::span<std::uint8_t> span = bytes.contiguous();
            ASSERT_TRUE(std::equal(span.begin(), span.end(),
                                   model.begin()));
        }

        for (std::size_t n = 0; n < needles.size(); ++n) {
            const bool expected = containsBytes(model, needles[n]);
            const bool found = bytes.contains(needles[n], absentAt[n]);
            ASSERT_EQ(found, expected) << "op " << op << " needle " << n;
            ASSERT_EQ(bytes.contains(needles[n]), expected)
                << "op " << op << " needle " << n;
            absentAt[n] = found ? 0 : bytes.generation();
        }
    }
    EXPECT_EQ(readAll(bytes), model);
}
