#include "crypto/sha256.hh"

#include <cstring>

namespace sentry::crypto
{

namespace
{

constexpr std::uint32_t K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t
rotr(std::uint32_t x, int k)
{
    return (x >> k) | (x << (32 - k));
}

} // namespace

void
Sha256::reset()
{
    static constexpr std::uint32_t init[8] = {
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
    };
    std::memcpy(state_, init, sizeof(state_));
    totalBytes_ = 0;
    bufferLen_ = 0;
}

void
Sha256::processBlock(const std::uint8_t block[64])
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
               (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
               (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
               static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 =
            rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const std::uint32_t s1 =
            rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

    for (int i = 0; i < 64; ++i) {
        const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t temp1 = h + s1 + ch + K[i] + w[i];
        const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t temp2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + temp1;
        d = c;
        c = b;
        b = a;
        a = temp1 + temp2;
    }

    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
}

void
Sha256::update(std::span<const std::uint8_t> data)
{
    totalBytes_ += data.size();
    std::size_t offset = 0;

    if (bufferLen_ > 0) {
        const std::size_t take =
            std::min<std::size_t>(64 - bufferLen_, data.size());
        std::memcpy(buffer_ + bufferLen_, data.data(), take);
        bufferLen_ += take;
        offset += take;
        if (bufferLen_ == 64) {
            processBlock(buffer_);
            bufferLen_ = 0;
        }
    }

    while (offset + 64 <= data.size()) {
        processBlock(data.data() + offset);
        offset += 64;
    }

    if (offset < data.size()) {
        std::memcpy(buffer_, data.data() + offset, data.size() - offset);
        bufferLen_ = data.size() - offset;
    }
}

Sha256Digest
Sha256::finish()
{
    const std::uint64_t bitLen = totalBytes_ * 8;

    std::uint8_t pad[72] = {0x80};
    const std::size_t padLen =
        (bufferLen_ < 56) ? (56 - bufferLen_) : (120 - bufferLen_);
    update({pad, padLen});

    std::uint8_t lenBytes[8];
    for (int i = 0; i < 8; ++i)
        lenBytes[i] = static_cast<std::uint8_t>(bitLen >> (56 - 8 * i));
    // update() adjusts totalBytes_, but we already captured bitLen.
    update({lenBytes, 8});

    Sha256Digest digest;
    for (int i = 0; i < 8; ++i) {
        digest[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
        digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    reset();
    return digest;
}

Sha256Digest
Sha256::hash(std::span<const std::uint8_t> data)
{
    Sha256 hasher;
    hasher.update(data);
    return hasher.finish();
}

HmacSha256::HmacSha256(std::span<const std::uint8_t> key)
{
    std::uint8_t keyBlock[64] = {};
    if (key.size() > 64) {
        const Sha256Digest hashed = Sha256::hash(key);
        std::memcpy(keyBlock, hashed.data(), hashed.size());
    } else {
        std::memcpy(keyBlock, key.data(), key.size());
    }

    std::uint8_t ipad[64], opad[64];
    for (int i = 0; i < 64; ++i) {
        ipad[i] = keyBlock[i] ^ 0x36;
        opad[i] = keyBlock[i] ^ 0x5c;
    }
    inner_.update({ipad, 64});
    outer_.update({opad, 64});
}

Sha256Digest
HmacSha256::mac(std::span<const std::uint8_t> message) const
{
    Sha256 inner = inner_;
    inner.update(message);
    const Sha256Digest innerDigest = inner.finish();

    Sha256 outer = outer_;
    outer.update({innerDigest.data(), innerDigest.size()});
    return outer.finish();
}

Sha256Digest
hmacSha256(std::span<const std::uint8_t> key,
           std::span<const std::uint8_t> message)
{
    return HmacSha256(key).mac(message);
}

} // namespace sentry::crypto
