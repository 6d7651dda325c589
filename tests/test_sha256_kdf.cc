/**
 * @file
 * SHA-256 (FIPS 180-4), HMAC-SHA256 (RFC 4231), and PBKDF2 (RFC 7914
 * scrypt-appendix vectors) validation.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/bytes.hh"
#include "crypto/kdf.hh"
#include "crypto/sha256.hh"

using namespace sentry;
using namespace sentry::crypto;

namespace
{
std::span<const std::uint8_t>
bytesOf(const char *s)
{
    return {reinterpret_cast<const std::uint8_t *>(s), std::strlen(s)};
}
} // namespace

TEST(Sha256, EmptyString)
{
    const auto digest = Sha256::hash({});
    EXPECT_EQ(toHex(digest),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    const auto digest = Sha256::hash(bytesOf("abc"));
    EXPECT_EQ(toHex(digest),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    const auto digest = Sha256::hash(bytesOf(
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
    EXPECT_EQ(toHex(digest),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 hasher;
    const std::vector<std::uint8_t> chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        hasher.update(chunk);
    EXPECT_EQ(toHex(hasher.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    const std::string msg = "the quick brown fox jumps over the lazy dog";
    for (std::size_t split = 0; split <= msg.size(); ++split) {
        Sha256 hasher;
        hasher.update(bytesOf(msg.substr(0, split).c_str()));
        hasher.update(bytesOf(msg.substr(split).c_str()));
        EXPECT_EQ(toHex(hasher.finish()),
                  toHex(Sha256::hash(bytesOf(msg.c_str()))));
    }
}

TEST(HmacSha256, Rfc4231Case1)
{
    const std::vector<std::uint8_t> key(20, 0x0b);
    const auto mac = hmacSha256(key, bytesOf("Hi There"));
    EXPECT_EQ(toHex(mac),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2)
{
    const auto mac = hmacSha256(bytesOf("Jefe"),
                                bytesOf("what do ya want for nothing?"));
    EXPECT_EQ(toHex(mac),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashedFirst)
{
    // RFC 4231 case 6: 131-byte key.
    const std::vector<std::uint8_t> key(131, 0xaa);
    const auto mac = hmacSha256(
        key, bytesOf("Test Using Larger Than Block-Size Key - "
                     "Hash Key First"));
    EXPECT_EQ(toHex(mac),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(Pbkdf2, Rfc7914VectorOneIteration)
{
    const auto dk =
        pbkdf2Sha256(bytesOf("passwd"), bytesOf("salt"), 1, 64);
    EXPECT_EQ(toHex(dk),
              "55ac046e56e3089fec1691c22544b605"
              "f94185216dde0465e68b9d57c20dacbc"
              "49ca9cccf179b645991664b39d77ef31"
              "7c71b845b1e30bd509112041d3a19783");
}

TEST(Pbkdf2, FourThousandIterations)
{
    // Well-known PBKDF2-HMAC-SHA256 test vector (c=4096).
    const auto dk =
        pbkdf2Sha256(bytesOf("password"), bytesOf("salt"), 4096, 32);
    EXPECT_EQ(toHex(dk),
              "c5e478d59288c841aa530db6845c4c8d"
              "962893a001ce4e11a4963873aa98134a");
}

TEST(Pbkdf2, LongPasswordTwoBlocksArePinned)
{
    // A 100-byte password takes HMAC's hashed-key path, and 40 bytes
    // need a second output block. The pinned value is what Python's
    // hashlib.pbkdf2_hmac gives for the same inputs.
    std::vector<std::uint8_t> password(100);
    for (std::size_t i = 0; i < password.size(); ++i)
        password[i] = static_cast<std::uint8_t>(i * 7 + 3);
    const auto dk = pbkdf2Sha256(password, bytesOf("NaCl-sentry"), 3, 40);
    EXPECT_EQ(toHex(dk),
              "1ab955d2bd91d686d6d906eadbce23e34de8419dcfc62d90b1a4514c"
              "6376d1062e47c66daa65a5a7");
}

TEST(Pbkdf2, OutputLengthsAreExact)
{
    for (std::size_t len : {1u, 16u, 31u, 32u, 33u, 64u, 100u}) {
        const auto dk =
            pbkdf2Sha256(bytesOf("pw"), bytesOf("s"), 2, len);
        EXPECT_EQ(dk.size(), len);
    }
}

TEST(DerivePersistentKey, DeterministicAndFuseDependent)
{
    const std::vector<std::uint8_t> fuseA(32, 0x11);
    const std::vector<std::uint8_t> fuseB(32, 0x22);

    const auto k1 = derivePersistentKey("hunter2", fuseA);
    const auto k2 = derivePersistentKey("hunter2", fuseA);
    const auto k3 = derivePersistentKey("hunter2", fuseB);
    const auto k4 = derivePersistentKey("hunter3", fuseA);

    EXPECT_EQ(k1.size(), 16u);
    EXPECT_EQ(toHex(k1), toHex(k2)); // deterministic
    EXPECT_NE(toHex(k1), toHex(k3)); // fuse-dependent
    EXPECT_NE(toHex(k1), toHex(k4)); // password-dependent
}
