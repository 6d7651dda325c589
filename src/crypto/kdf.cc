#include "crypto/kdf.hh"

#include <cstring>

#include "common/logging.hh"
#include "crypto/sha256.hh"

namespace sentry::crypto
{

std::vector<std::uint8_t>
pbkdf2Sha256(std::span<const std::uint8_t> password,
             std::span<const std::uint8_t> salt, unsigned iterations,
             std::size_t dkLen)
{
    if (iterations == 0)
        fatal("pbkdf2Sha256: iteration count must be positive");

    const HmacSha256 prf(password);
    std::vector<std::uint8_t> derived;
    derived.reserve(dkLen);

    std::uint32_t blockIndex = 1;
    while (derived.size() < dkLen) {
        // U1 = HMAC(password, salt || INT_BE(blockIndex))
        std::vector<std::uint8_t> msg(salt.begin(), salt.end());
        msg.push_back(static_cast<std::uint8_t>(blockIndex >> 24));
        msg.push_back(static_cast<std::uint8_t>(blockIndex >> 16));
        msg.push_back(static_cast<std::uint8_t>(blockIndex >> 8));
        msg.push_back(static_cast<std::uint8_t>(blockIndex));

        Sha256Digest u = prf.mac(msg);
        Sha256Digest t = u;
        for (unsigned iter = 1; iter < iterations; ++iter) {
            u = prf.mac({u.data(), u.size()});
            for (std::size_t i = 0; i < t.size(); ++i)
                t[i] ^= u[i];
        }

        const std::size_t take =
            std::min<std::size_t>(t.size(), dkLen - derived.size());
        derived.insert(derived.end(), t.begin(), t.begin() + take);
        ++blockIndex;
    }

    return derived;
}

std::vector<std::uint8_t>
derivePersistentKey(const std::string &password,
                    std::span<const std::uint8_t> fuse_secret)
{
    const std::span<const std::uint8_t> pw{
        reinterpret_cast<const std::uint8_t *>(password.data()),
        password.size()};
    // 4096 iterations mirrors the dm-crypt/LUKS default era of the paper.
    return pbkdf2Sha256(pw, fuse_secret, 4096, 16);
}

} // namespace sentry::crypto
