/**
 * @file
 * CowBytes / CowImage unit tests: the page-granular copy-on-write
 * array backing Dram and Iram for snapshot/fork.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

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
