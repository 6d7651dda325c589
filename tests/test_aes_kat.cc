/**
 * @file
 * AES known-answer tests against the published NIST vectors:
 *
 *   - FIPS-197 Appendix B (AES-128 worked example) and Appendix C
 *     (AES-128/192/256 example vectors) for the single-block cipher,
 *     on both the T-table fast path and the canonical step-by-step
 *     implementation;
 *   - NIST SP 800-38A F.1 (ECB) and F.2 (CBC) multi-block vectors for
 *     the mode layer, the host CBC cipher, and the SimAesEngine
 *     audited/bulk tiers in every state placement.
 *
 * These pin the ciphertext bit-for-bit, so a regression anywhere in the
 * pipeline (tables, key schedule, chaining, the host kernel tiers)
 * fails against the standard rather than against our own reference.
 */

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "core/defense_backend.hh"
#include "core/locked_way_manager.hh"
#include "core/onsoc_allocator.hh"
#include "crypto/aes.hh"
#include "crypto/aes_on_soc.hh"
#include "crypto/modes.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"

using namespace sentry;
using namespace sentry::crypto;
using namespace sentry::hw;

namespace
{

/** One single-block known-answer vector. */
struct BlockKat
{
    const char *name;
    const char *key;
    const char *plaintext;
    const char *ciphertext;
};

// FIPS-197 Appendix B (the worked AES-128 example) and Appendix C
// (example vectors for all three key sizes).
const BlockKat BLOCK_KATS[] = {
    {"Fips197AppendixB", "2b7e151628aed2a6abf7158809cf4f3c",
     "3243f6a8885a308d313198a2e0370734",
     "3925841d02dc09fbdc118597196a0b32"},
    {"Fips197AppendixC1Aes128", "000102030405060708090a0b0c0d0e0f",
     "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"},
    {"Fips197AppendixC2Aes192",
     "000102030405060708090a0b0c0d0e0f1011121314151617",
     "00112233445566778899aabbccddeeff",
     "dda97ca4864cdfe06eaf70a0ec0d7191"},
    {"Fips197AppendixC3Aes256",
     "000102030405060708090a0b0c0d0e0f"
     "101112131415161718191a1b1c1d1e1f",
     "00112233445566778899aabbccddeeff",
     "8ea2b7ca516745bfeafc49904b496089"},
};

// NIST SP 800-38A F.1/F.2: the shared four-block plaintext.
const char *const SP800_38A_PLAINTEXT =
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710";

const char *const SP800_38A_IV = "000102030405060708090a0b0c0d0e0f";

/** One multi-block SP 800-38A vector. */
struct ModeKat
{
    const char *name;
    const char *key;
    const char *ciphertext;
};

const ModeKat CBC_KATS[] = {
    {"CbcAes128", "2b7e151628aed2a6abf7158809cf4f3c",
     "7649abac8119b246cee98e9b12e9197d"
     "5086cb9b507219ee95db113a917678b2"
     "73bed6b8e3c1743b7116e69e22229516"
     "3ff1caa1681fac09120eca307586e1a7"},
    {"CbcAes192", "8e73b0f7da0e6452c810f32b809079e5"
                  "62f8ead2522c6b7b",
     "4f021db243bc633d7178183a9fa071e8"
     "b4d9ada9ad7dedf4e5e738763f69145a"
     "571b242012fb7ae07fa9baac3df102e0"
     "08b0e27988598881d920a9e64f5615cd"},
    {"CbcAes256", "603deb1015ca71be2b73aef0857d7781"
                  "1f352c073b6108d72d9810a30914dff4",
     "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
     "9cfc4e967edb808d679f777bc6702c7d"
     "39f23369a9d9bacfa530e26304231461"
     "b2eb05e2c39be9fcda6c19078c6a9d1b"},
};

const ModeKat ECB_KATS[] = {
    {"EcbAes128", "2b7e151628aed2a6abf7158809cf4f3c",
     "3ad77bb40d7a3660a89ecaf32466ef97"
     "f5d3d58503b9699de785895a96fdbaaf"
     "43b1cd7f598ece23881b00e3ed030688"
     "7b0c785e27e8ad3f8223207104725dd4"},
};

Iv
ivFromHex(const char *hex)
{
    const auto bytes = fromHex(hex);
    Iv iv{};
    std::copy(bytes.begin(), bytes.end(), iv.begin());
    return iv;
}

/** On-SoC fixture for the SimAesEngine tiers. */
struct KatEngineFixture : testing::Test
{
    KatEngineFixture()
        : soc(PlatformConfig::tegra3(32 * MiB)),
          iramAlloc(core::OnSocAllocator::forIram(soc.iram().size())),
          wayManager(soc, DRAM_BASE + 16 * MiB)
    {}

    std::unique_ptr<SimAesEngine>
    makeEngine(StatePlacement placement,
               std::span<const std::uint8_t> key)
    {
        const auto layout =
            AesStateLayout::forKeyBytes(static_cast<unsigned>(key.size()));
        PhysAddr base = 0;
        switch (placement) {
          case StatePlacement::Dram:
            base = DRAM_BASE + 4 * MiB;
            break;
          case StatePlacement::Iram:
            base = iramAlloc.alloc(layout.totalBytes()).base;
            break;
          case StatePlacement::LockedL2:
            base = wayManager.lockWay()->base;
            break;
        }
        return std::make_unique<SimAesEngine>(soc, base, key, placement);
    }

    Soc soc;
    core::OnSocAllocator iramAlloc;
    core::LockedWayManager wayManager;
};

class KatPlacementTest
    : public KatEngineFixture,
      public testing::WithParamInterface<StatePlacement>
{
};

} // namespace

TEST(AesKat, TtableBlocksMatchFips197)
{
    for (const BlockKat &kat : BLOCK_KATS) {
        SCOPED_TRACE(kat.name);
        Aes aes(fromHex(kat.key));
        const auto pt = fromHex(kat.plaintext);
        std::uint8_t ct[16], back[16];
        aes.encryptBlock(pt.data(), ct);
        EXPECT_EQ(toHex({ct, 16}), kat.ciphertext);
        aes.decryptBlock(ct, back);
        EXPECT_EQ(toHex({back, 16}), kat.plaintext);
    }
}

TEST(AesKat, CanonicalBlocksMatchFips197)
{
    for (const BlockKat &kat : BLOCK_KATS) {
        SCOPED_TRACE(kat.name);
        Aes aes(fromHex(kat.key));
        const auto pt = fromHex(kat.plaintext);
        std::uint8_t ct[16], back[16];
        aes.encryptBlockCanonical(pt.data(), ct);
        EXPECT_EQ(toHex({ct, 16}), kat.ciphertext);
        aes.decryptBlockCanonical(ct, back);
        EXPECT_EQ(toHex({back, 16}), kat.plaintext);
    }
}

TEST(AesKat, CbcModeMatchesSp800_38a)
{
    for (const ModeKat &kat : CBC_KATS) {
        SCOPED_TRACE(kat.name);
        Aes aes(fromHex(kat.key));
        AesBlockCipher cipher(aes);
        const Iv iv = ivFromHex(SP800_38A_IV);

        auto data = fromHex(SP800_38A_PLAINTEXT);
        cbcEncrypt(cipher, iv, data);
        EXPECT_EQ(toHex(data), kat.ciphertext);
        cbcDecrypt(cipher, iv, data);
        EXPECT_EQ(toHex(data), SP800_38A_PLAINTEXT);
    }
}

TEST(AesKat, EcbModeMatchesSp800_38a)
{
    for (const ModeKat &kat : ECB_KATS) {
        SCOPED_TRACE(kat.name);
        Aes aes(fromHex(kat.key));
        AesBlockCipher cipher(aes);

        auto data = fromHex(SP800_38A_PLAINTEXT);
        ecbEncrypt(cipher, data);
        EXPECT_EQ(toHex(data), kat.ciphertext);
        ecbDecrypt(cipher, data);
        EXPECT_EQ(toHex(data), SP800_38A_PLAINTEXT);
    }
}

TEST(AesKat, KcryptdHostCipherMatchesSp800_38a)
{
    // The host kernel tier's bulk CBC, which the engine's bulk path
    // (and so dm-crypt's writes to flash) runs, must produce standard
    // CBC ciphertext.
    for (const ModeKat &kat : CBC_KATS) {
        SCOPED_TRACE(kat.name);
        const HostAesCbc host{AesKeySchedule(fromHex(kat.key))};
        const Iv iv = ivFromHex(SP800_38A_IV);

        auto data = fromHex(SP800_38A_PLAINTEXT);
        host.cbcEncrypt(iv, data);
        EXPECT_EQ(toHex(data), kat.ciphertext);
        host.cbcDecrypt(iv, data);
        EXPECT_EQ(toHex(data), SP800_38A_PLAINTEXT);
    }
}

TEST_P(KatPlacementTest, AuditedBlocksMatchFips197)
{
    for (const BlockKat &kat : BLOCK_KATS) {
        SCOPED_TRACE(kat.name);
        auto engine = makeEngine(GetParam(), fromHex(kat.key));
        const auto pt = fromHex(kat.plaintext);
        std::uint8_t ct[16], back[16];
        engine->encryptBlock(pt.data(), ct);
        EXPECT_EQ(toHex({ct, 16}), kat.ciphertext);
        engine->decryptBlock(ct, back);
        EXPECT_EQ(toHex({back, 16}), kat.plaintext);
    }
}

TEST_P(KatPlacementTest, AuditedEcbMatchesSp800_38a)
{
    for (const ModeKat &kat : ECB_KATS) {
        SCOPED_TRACE(kat.name);
        auto engine = makeEngine(GetParam(), fromHex(kat.key));

        auto data = fromHex(SP800_38A_PLAINTEXT);
        ecbEncrypt(*engine, data);
        EXPECT_EQ(toHex(data), kat.ciphertext);
        ecbDecrypt(*engine, data);
        EXPECT_EQ(toHex(data), SP800_38A_PLAINTEXT);
    }
}

TEST_P(KatPlacementTest, AuditedAndBulkCbcMatchSp800_38a)
{
    const ModeKat &kat = CBC_KATS[0]; // AES-128 (the Sentry key size)
    auto engine = makeEngine(GetParam(), fromHex(kat.key));
    const Iv iv = ivFromHex(SP800_38A_IV);

    auto audited = fromHex(SP800_38A_PLAINTEXT);
    cbcEncrypt(*engine, iv, audited);
    EXPECT_EQ(toHex(audited), kat.ciphertext);
    cbcDecrypt(*engine, iv, audited);
    EXPECT_EQ(toHex(audited), SP800_38A_PLAINTEXT);

    auto bulk = fromHex(SP800_38A_PLAINTEXT);
    engine->cbcEncrypt(iv, bulk);
    EXPECT_EQ(toHex(bulk), kat.ciphertext);
    engine->cbcDecrypt(iv, bulk);
    EXPECT_EQ(toHex(bulk), SP800_38A_PLAINTEXT);
}

TEST(AesKat, DefenseWorkingKeyDerivationIsPinned)
{
    // The Amnesia rekey path derives its working key with
    // PBKDF2-HMAC-SHA256 over the volatile root key; pin the derived
    // bytes for a known master so a KDF regression fails here rather
    // than as a silent fleet-digest drift.
    core::RootKey master{};
    const auto bytes = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    std::copy(bytes.begin(), bytes.end(), master.begin());

    const auto amnesia = core::amnesiaWorkingKey(master);
    EXPECT_EQ(toHex({amnesia.data(), amnesia.size()}),
              "5c41e6ef33a65fa333a33747ba3bbeaf");
    EXPECT_EQ(amnesia,
              core::defenseWorkingKey(master, "amnesia-working-key"));

    const auto memshield =
        core::defenseWorkingKey(master, "memshield-working-key");
    EXPECT_EQ(toHex({memshield.data(), memshield.size()}),
              "48926aa472fffd5a46a7bb80c0bf2311");

    // Distinct labels must yield distinct keys, and neither working
    // key may degenerate to the master it was derived from.
    EXPECT_NE(amnesia, memshield);
    EXPECT_NE(toHex({amnesia.data(), amnesia.size()}),
              "2b7e151628aed2a6abf7158809cf4f3c");
}

TEST_P(KatPlacementTest, DerivedWorkingKeyRoundTripsEveryTier)
{
    // Amnesia swaps the master for a derived working key; the cipher
    // under that key must still be textbook AES on every placement and
    // tier. The host crypto::Aes is pinned against FIPS-197 above, so
    // agreeing with it chains the working-key engines to the standard.
    for (const BlockKat &kat : BLOCK_KATS) {
        if (std::string(kat.key).size() != 32)
            continue; // working keys are AES-128
        SCOPED_TRACE(kat.name);
        core::RootKey master{};
        const auto masterBytes = fromHex(kat.key);
        std::copy(masterBytes.begin(), masterBytes.end(), master.begin());
        const auto wk = core::amnesiaWorkingKey(master);

        Aes host(std::vector<std::uint8_t>(wk.begin(), wk.end()));
        const auto pt = fromHex(kat.plaintext);
        std::uint8_t want[16];
        host.encryptBlock(pt.data(), want);

        auto engine = makeEngine(GetParam(), wk);
        std::uint8_t ct[16], back[16];
        engine->encryptBlock(pt.data(), ct);
        EXPECT_EQ(toHex({ct, 16}), toHex({want, 16}));
        engine->decryptBlock(ct, back);
        EXPECT_EQ(toHex({back, 16}), kat.plaintext);
    }
}

TEST(AesKat, RegisterOnlyWorkingKeyEngineMatchesHostAes)
{
    // Amnesia's exact engine construction: DRAM-placed tables with the
    // key schedule held register-only. The residency policy must not
    // change the ciphertext.
    Soc soc(PlatformConfig::tegra3(16 * MiB));
    core::RootKey master{};
    const auto bytes = fromHex("000102030405060708090a0b0c0d0e0f");
    std::copy(bytes.begin(), bytes.end(), master.begin());
    const auto wk = core::amnesiaWorkingKey(master);

    SimAesEngine engine(soc, DRAM_BASE + 4 * MiB,
                        std::span<const std::uint8_t>(wk),
                        StatePlacement::Dram,
                        /*kernel_path=*/true,
                        SecretResidency::RegistersOnly);
    Aes host(std::vector<std::uint8_t>(wk.begin(), wk.end()));

    const auto pt = fromHex(SP800_38A_PLAINTEXT);
    std::vector<std::uint8_t> want(pt), got(pt);
    const Iv iv = ivFromHex(SP800_38A_IV);
    AesBlockCipher cipher(host);
    cbcEncrypt(cipher, iv, want);
    engine.cbcEncrypt(iv, got);
    EXPECT_EQ(toHex(got), toHex(want));
    engine.cbcDecrypt(iv, got);
    EXPECT_EQ(toHex(got), SP800_38A_PLAINTEXT);
}

INSTANTIATE_TEST_SUITE_P(AllPlacements, KatPlacementTest,
                         testing::Values(StatePlacement::Dram,
                                         StatePlacement::Iram,
                                         StatePlacement::LockedL2),
                         [](const auto &info) -> std::string {
                             switch (info.param) {
                               case StatePlacement::Dram:
                                 return "Dram";
                               case StatePlacement::Iram:
                                 return "Iram";
                               default:
                                 return "LockedL2";
                             }
                         });
