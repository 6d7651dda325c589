/**
 * @file
 * Host kernel registry (host/kernels.hh): the accelerated tiers must be
 * interchangeable with the portable tier bit for bit. These tests pin
 * that contract at three levels — raw kernel calls (FIPS-197 KATs, CBC
 * at awkward lengths, the power-loss decay at edge thresholds), the
 * crypto front doors that route through the registry, and a whole fleet
 * run whose `sim_` fingerprint must not move when the portable tier is
 * pinned. On a machine without any accelerated tier the active registry
 * *is* the portable one and every parity check degenerates to identity,
 * which is exactly the guarantee SENTRY_FORCE_PORTABLE relies on. The
 * byte scans of common/bytes.hh have one body, checked here against
 * naive loops.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "crypto/aes.hh"
#include "crypto/aes_on_soc.hh"
#include "fleet/fleet.hh"
#include "fleet/scenario.hh"
#include "fleet/shard.hh"
#include "host/cpu_features.hh"
#include "host/kernels.hh"

using namespace sentry;

namespace
{

/** Deterministic filler, independent of the registry under test. */
std::vector<std::uint8_t>
patternBuf(std::size_t len, std::uint32_t seed)
{
    std::vector<std::uint8_t> buf(len);
    std::uint32_t x = seed * 2654435761u + 1;
    for (std::size_t i = 0; i < len; ++i) {
        x = x * 1664525u + 1013904223u;
        buf[i] = static_cast<std::uint8_t>(x >> 24);
    }
    return buf;
}

std::vector<std::uint8_t>
fips197Key(std::size_t bytes)
{
    std::vector<std::uint8_t> key(bytes);
    for (std::size_t i = 0; i < bytes; ++i)
        key[i] = static_cast<std::uint8_t>(i);
    return key;
}

class HostKernelsTest : public testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { host::setActiveKernelsForTest(nullptr); }
};

} // namespace

TEST_F(HostKernelsTest, ActiveTierMatchesFips197KnownAnswers)
{
    // FIPS-197 appendix C: same plaintext, one ciphertext per key size.
    const struct
    {
        std::size_t keyBytes;
        const char *cipherHex;
    } KATS[] = {
        {16, "69c4e0d86a7b0430d8cdb78070b4c55a"},
        {24, "dda97ca4864cdfe06eaf70a0ec0d7191"},
        {32, "8ea2b7ca516745bfeafc49904b496089"},
    };
    const auto plain = fromHex("00112233445566778899aabbccddeeff");

    for (const auto &kat : KATS) {
        const crypto::AesKeySchedule schedule(fips197Key(kat.keyBytes));
        const auto want = fromHex(kat.cipherHex);
        std::uint8_t got[16];

        host::kernels().aes.encryptBlock(schedule, plain.data(), got);
        EXPECT_EQ(0, std::memcmp(got, want.data(), 16))
            << "encrypt, key bytes " << kat.keyBytes << ", tier "
            << host::kernels().aes.tier;

        host::kernels().aes.decryptBlock(schedule, want.data(), got);
        EXPECT_EQ(0, std::memcmp(got, plain.data(), 16))
            << "decrypt, key bytes " << kat.keyBytes << ", tier "
            << host::kernels().aes.tier;
    }
}

TEST_F(HostKernelsTest, CbcParityWithPortableAtAwkwardLengths)
{
    const crypto::AesKeySchedule schedule(
        fromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    const auto iv = patternBuf(16, 7);

    // Lengths chosen to hit the wide lanes (8 blocks under VAES, 4
    // under AES-NI), the scalar tails, and the single-block case.
    for (const std::size_t blocks :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
          std::size_t{5}, std::size_t{7}, std::size_t{8}, std::size_t{9},
          std::size_t{13}, std::size_t{64}, std::size_t{257}}) {
        const auto seedData = patternBuf(blocks * 16,
                                         static_cast<std::uint32_t>(blocks));
        auto active = seedData;
        auto portable = seedData;

        host::kernels().aes.cbcEncrypt(schedule, iv.data(), active.data(),
                                       active.size());
        host::portableKernels().aes.cbcEncrypt(
            schedule, iv.data(), portable.data(), portable.size());
        EXPECT_EQ(active, portable) << blocks << " blocks, encrypt";

        host::kernels().aes.cbcDecrypt(schedule, iv.data(), active.data(),
                                       active.size());
        host::portableKernels().aes.cbcDecrypt(
            schedule, iv.data(), portable.data(), portable.size());
        EXPECT_EQ(active, portable) << blocks << " blocks, decrypt";
        EXPECT_EQ(active, seedData) << blocks << " blocks, round trip";
    }
}

TEST_F(HostKernelsTest, ByteScansMatchNaiveReference)
{
    auto hay = patternBuf(8192 + 11, 42);
    const std::uint8_t pat[8] = {0xde, 0xad, 0xbe, 0xef,
                                 0x5e, 0x47, 0x12, 0x9a};
    // Stride-aligned plants (counted) and one unaligned plant (not).
    std::memcpy(hay.data() + 8 * 5, pat, 8);
    std::memcpy(hay.data() + 8 * 777, pat, 8);
    std::memcpy(hay.data() + 8 * 1023, pat, 8);
    std::memcpy(hay.data() + 8 * 33 + 5, pat, 8);

    // countPattern vs a naive stride loop.
    std::size_t naive = 0;
    for (std::size_t off = 0; off + 8 <= hay.size(); off += 8)
        naive += std::memcmp(hay.data() + off, pat, 8) == 0 ? 1 : 0;
    EXPECT_EQ(countPattern(hay, pat), naive);
    EXPECT_GE(naive, std::size_t{3});

    // containsBytes vs a naive byte-granular scan, for needles planted
    // at the head, middle, tail, unaligned, and absent.
    const auto absent = patternBuf(24, 999);
    const std::span<const std::uint8_t> probes[] = {
        {hay.data(), 16},
        {hay.data() + 4321, 21},
        {hay.data() + hay.size() - 9, 9},
        {hay.data() + 8 * 33 + 5, 8},
        absent,
    };
    for (const std::span<const std::uint8_t> probe : probes) {
        bool naiveHit = false;
        for (std::size_t off = 0; off + probe.size() <= hay.size(); ++off) {
            if (std::memcmp(hay.data() + off, probe.data(), probe.size()) ==
                0) {
                naiveHit = true;
                break;
            }
        }
        EXPECT_EQ(containsBytes(hay, probe), naiveHit);
    }

    // allZero at sizes around the word width, with the dirty byte at
    // the head, the interior, and the very last position.
    for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{8},
                                  std::size_t{9}, std::size_t{4096},
                                  std::size_t{4099}}) {
        std::vector<std::uint8_t> zeros(len, 0);
        EXPECT_TRUE(allZero(zeros)) << len;
        if (len == 0)
            continue;
        for (const std::size_t flip :
             {std::size_t{0}, len / 2, len - 1}) {
            zeros[flip] = 0x80;
            EXPECT_FALSE(allZero(zeros)) << len << " flip " << flip;
            zeros[flip] = 0;
        }
    }

    // fillPattern's doubling copy must tile exactly like the naive loop.
    std::vector<std::uint8_t> filled(1000);
    fillPattern(filled, pat);
    for (std::size_t i = 0; i < filled.size(); ++i)
        ASSERT_EQ(filled[i], pat[i % sizeof pat]) << i;
}

TEST_F(HostKernelsTest, ZeroEndedNeedlesMatchNaiveReference)
{
    // Needles whose first or last bytes are 0x00 in mostly zeroed
    // memory (one random island): absent, then planted at every
    // alignment from the head and from the tail.
    std::vector<std::uint8_t> zeroed(4096 + 5, 0);
    const auto island = patternBuf(40, 3);
    std::memcpy(zeroed.data() + 2000, island.data(), island.size());

    std::vector<std::vector<std::uint8_t>> needles;
    for (const std::size_t len : {2, 3, 16, 33}) {
        auto needle = patternBuf(len, static_cast<std::uint32_t>(len));
        needle.front() = 0x00;
        needles.push_back(needle); // zero head
        needle.back() = 0x00;
        needles.push_back(needle); // zero head and tail
        needle.front() = 0x5a;
        needles.push_back(needle); // zero tail
    }
    needles.emplace_back(16, 0x00);
    needles.emplace_back(16, 0x00).at(7) = 0x42; // one non-zero byte

    const auto naive = [&](const std::vector<std::uint8_t> &needle) {
        for (std::size_t off = 0; off + needle.size() <= zeroed.size();
             ++off) {
            if (std::memcmp(zeroed.data() + off, needle.data(),
                            needle.size()) == 0)
                return true;
        }
        return false;
    };
    const auto check = [&](const std::vector<std::uint8_t> &needle,
                           const std::string &where) {
        EXPECT_EQ(containsBytes(zeroed, needle), naive(needle)) << where;
    };
    for (std::size_t n = 0; n < needles.size(); ++n) {
        const std::vector<std::uint8_t> &needle = needles[n];
        check(needle, "needle " + std::to_string(n) + " absent");
        for (std::size_t shift = 0; shift <= 32; ++shift) {
            for (const std::size_t at :
                 {shift, zeroed.size() - needle.size() - shift}) {
                const std::vector<std::uint8_t> saved(
                    zeroed.begin() + at, zeroed.begin() + at + needle.size());
                std::memcpy(zeroed.data() + at, needle.data(), needle.size());
                check(needle, "needle " + std::to_string(n) + " at " +
                                  std::to_string(at));
                std::memcpy(zeroed.data() + at, saved.data(), saved.size());
            }
        }
    }
}

TEST_F(HostKernelsTest, DecayPageMatchesPortableAtEdgeThresholds)
{
    // Thresholds at the ends and at the signed 16-bit boundary, toward
    // both grounds, on a full page (the AVX2 lanes) and on partial
    // pages: same bytes and same final stream state.
    const host::BytesKernel &active = host::kernels().bytes;
    const host::BytesKernel &portable = host::portableKernels().bytes;
    Rng source(0xdeca7);
    for (const std::size_t len : {PAGE_SIZE, PAGE_SIZE - 1, std::size_t{7}}) {
        for (const std::uint32_t threshold :
             {0u, 1u, 32767u, 32768u, 65535u}) {
            for (const std::uint8_t ground : {0x00, 0xff}) {
                const Rng::State state = {source.next64(), source.next64(),
                                          source.next64(), source.next64()};
                const auto cells = patternBuf(len, threshold + ground);
                auto got = cells;
                auto want = cells;
                EXPECT_EQ(active.decayPage(got.data(), len, state,
                                           threshold, ground),
                          portable.decayPage(want.data(), len, state,
                                             threshold, ground))
                    << len << " " << threshold << " " << int(ground);
                EXPECT_EQ(got, want)
                    << len << " " << threshold << " " << int(ground);
            }
        }
    }
}

TEST_F(HostKernelsTest, HostAesCbcMatchesPinnedPortable)
{
    const crypto::AesKeySchedule schedule(
        fromHex("603deb1015ca71be2b73aef0857d7781"
                "1f352c073b6108d72d9810a30914dff4"));
    const crypto::HostAesCbc cbc(schedule);
    crypto::Iv iv{};
    for (std::size_t i = 0; i < iv.size(); ++i)
        iv[i] = static_cast<std::uint8_t>(0xb0 + i);

    const auto seedData = patternBuf(4096 + 48, 11);
    auto active = seedData;
    cbc.cbcEncrypt(iv, active);

    host::setActiveKernelsForTest(&host::portableKernels());
    auto portable = seedData;
    cbc.cbcEncrypt(iv, portable);
    EXPECT_EQ(active, portable);

    cbc.cbcDecrypt(iv, portable);
    host::setActiveKernelsForTest(nullptr);
    cbc.cbcDecrypt(iv, active);
    EXPECT_EQ(active, seedData);
    EXPECT_EQ(portable, seedData);
}

TEST_F(HostKernelsTest, FleetScheduleDigestIdenticalAcrossTiers)
{
    // The headline guarantee: pinning the portable tier must not move a
    // single sim_ metric of a fleet run — accelerated kernels change
    // host instruction selection only, never simulated results. The
    // attack campaign's resets run the power-loss decay kernel.
    const auto fingerprint = [](const fleet::FleetReport &report) {
        std::string out;
        for (const fleet::FleetMetric &metric : report.metrics) {
            if (metric.name.rfind("sim_", 0) == 0)
                out += metric.name + "=" + metric.jsonValue() + "\n";
        }
        for (const fleet::DeviceResult &r : report.results) {
            out += std::to_string(r.index) + ":" +
                   std::to_string(r.simCycles) + ":" +
                   std::to_string(r.bytesEncryptedOnLock) + ":" +
                   fleet::deviceDigest(r) + "\n";
        }
        return out;
    };
    for (const char *name : {"fleet-smoke", "attack-campaign"}) {
        const fleet::Scenario scenario = fleet::builtinScenario(name);
        fleet::FleetOptions options;
        options.devices = 3;
        options.threads = 1;
        options.seed = 0x5e47c0deULL;
        options.dramBytes = 8 * MiB;

        const fleet::FleetReport active = fleet::runFleet(scenario, options);
        host::setActiveKernelsForTest(&host::portableKernels());
        const fleet::FleetReport portable =
            fleet::runFleet(scenario, options);
        host::setActiveKernelsForTest(nullptr);

        ASSERT_TRUE(active.allOk) << name << "\n" << active.summary();
        ASSERT_TRUE(portable.allOk) << name << "\n" << portable.summary();
        EXPECT_EQ(fingerprint(active), fingerprint(portable)) << name;
    }
}

TEST_F(HostKernelsTest, RegistryReportsCoherentTiers)
{
    const host::Kernels &active = host::kernels();
    const host::Kernels &portable = host::portableKernels();
    EXPECT_STREQ(portable.aes.tier, "portable");
    EXPECT_STREQ(portable.bytes.tier, "portable");
    ASSERT_NE(active.aes.tier, nullptr);
    ASSERT_NE(active.bytes.tier, nullptr);
    if (host::forcedPortable()) {
        EXPECT_STREQ(active.aes.tier, "portable");
        EXPECT_STREQ(active.bytes.tier, "portable");
    } else if (host::cpuFeatures().avx2) {
        // The AVX2 decay passes its own verification: a rejected tier
        // would fall back to portable without a word.
        EXPECT_STREQ(active.bytes.tier, "avx2");
    }

    // The --host-info payload and the bench record key both name the
    // active tiers.
    const std::string info = host::hostInfoString();
    EXPECT_NE(info.find(active.aes.tier), std::string::npos);
    EXPECT_NE(info.find(active.bytes.tier), std::string::npos);
    const std::string key = host::hostFeaturesKey();
    EXPECT_NE(key.find(std::string("aes=") + active.aes.tier),
              std::string::npos);
    EXPECT_NE(key.find(std::string("bytes=") + active.bytes.tier),
              std::string::npos);
}

TEST_F(HostKernelsTest, TestOverrideSwapsAndRestores)
{
    const host::Kernels &before = host::kernels();
    host::setActiveKernelsForTest(&host::portableKernels());
    EXPECT_EQ(&host::kernels(), &host::portableKernels());
    host::setActiveKernelsForTest(nullptr);
    EXPECT_EQ(&host::kernels(), &before);
}
