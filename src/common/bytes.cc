#include "common/bytes.hh"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "common/logging.hh"

namespace sentry
{

void
fillPattern(std::span<std::uint8_t> buf, std::span<const std::uint8_t> pattern)
{
    if (pattern.empty())
        panic("fillPattern: empty pattern");
    if (buf.empty())
        return;
    // Seed one copy, then double the filled prefix with self-memcpy
    // (log2 copies instead of one per repetition).
    std::size_t filled = std::min(pattern.size(), buf.size());
    std::memcpy(buf.data(), pattern.data(), filled);
    while (filled < buf.size()) {
        const std::size_t chunk = std::min(filled, buf.size() - filled);
        std::memcpy(buf.data() + filled, buf.data(), chunk);
        filled += chunk;
    }
}

std::size_t
countPattern(std::span<const std::uint8_t> buf,
             std::span<const std::uint8_t> pattern)
{
    if (pattern.empty())
        panic("countPattern: empty pattern");
    const std::size_t stride = pattern.size();
    std::size_t hits = 0;
    for (std::size_t off = 0; off + stride <= buf.size(); off += stride) {
        if (std::memcmp(buf.data() + off, pattern.data(), stride) == 0)
            ++hits;
    }
    return hits;
}

namespace
{

/**
 * @return the index of the byte a containsBytes scan looks for: the
 * needle's first byte that is not 0x00, or 0 when all are. Device
 * memory is mostly zeroed, so looking for a 0x00 byte would make
 * nearly every position there a memcmp candidate.
 */
std::size_t
filterByte(std::span<const std::uint8_t> needle)
{
    std::size_t at = 0;
    while (at < needle.size() && needle[at] == 0)
        ++at;
    return at == needle.size() ? 0 : at;
}

} // namespace

bool
containsBytes(std::span<const std::uint8_t> haystack,
              std::span<const std::uint8_t> needle)
{
    if (needle.empty() || needle.size() > haystack.size())
        return false;
    // memchr for the filter byte; a hit at p is a candidate at p - at.
    const std::size_t at = filterByte(needle);
    const std::uint8_t *p = haystack.data() + at;
    const std::uint8_t *end =
        haystack.data() + haystack.size() - needle.size() + 1 + at;
    while (p < end) {
        const auto *hit = static_cast<const std::uint8_t *>(std::memchr(
            p, needle[at], static_cast<std::size_t>(end - p)));
        if (hit == nullptr)
            return false;
        if (std::memcmp(hit - at, needle.data(), needle.size()) == 0)
            return true;
        p = hit + 1;
    }
    return false;
}

StreamMatcher::StreamMatcher(std::vector<std::vector<std::uint8_t>> needles)
    : needles_(std::move(needles))
{
    for (const auto &needle : needles_) {
        if (!needle.empty())
            carry_ = std::max(carry_, needle.size() - 1);
    }
    window_.resize(2 * carry_);
    reset();
}

void
StreamMatcher::reset()
{
    found_.assign(needles_.size(), 0);
    unfound_ = 0;
    for (const auto &needle : needles_)
        unfound_ += needle.empty() ? 0 : 1;
    tail_ = 0;
}

void
StreamMatcher::search(std::span<const std::uint8_t> bytes)
{
    for (std::size_t i = 0; i < needles_.size(); ++i) {
        if (found_[i] == 0 && containsBytes(bytes, needles_[i])) {
            found_[i] = 1;
            --unfound_;
        }
    }
}

void
StreamMatcher::feed(std::span<const std::uint8_t> chunk)
{
    // Found flags only rise until reset(), so once every needle is
    // found the rest of the stream cannot change an answer.
    if (unfound_ == 0 || chunk.empty())
        return;
    search(chunk);
    if (carry_ == 0)
        return; // one-byte needles never cross a seam
    // The seam window: the carried tail, then the chunk's head.
    const std::size_t head = std::min(chunk.size(), carry_);
    std::memcpy(window_.data() + tail_, chunk.data(), head);
    if (tail_ != 0)
        search({window_.data(), tail_ + head});
    // Carry the stream's last carry_ bytes into the next seam.
    if (chunk.size() >= carry_) {
        std::memcpy(window_.data(), chunk.data() + chunk.size() - carry_,
                    carry_);
        tail_ = carry_;
    } else {
        const std::size_t held = tail_ + head;
        const std::size_t keep = std::min(held, carry_);
        std::memmove(window_.data(), window_.data() + held - keep, keep);
        tail_ = keep;
    }
}

bool
allZero(std::span<const std::uint8_t> buf)
{
    std::uint64_t acc = 0;
    std::size_t i = 0;
    for (; i + 8 <= buf.size(); i += 8) {
        std::uint64_t word;
        std::memcpy(&word, buf.data() + i, 8);
        acc |= word;
    }
    for (; i < buf.size(); ++i)
        acc |= buf[i];
    return acc == 0;
}

std::string
toHex(std::span<const std::uint8_t> buf)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(buf.size() * 2);
    for (std::uint8_t b : buf) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xf]);
    }
    return out;
}

std::vector<std::uint8_t>
fromHex(const std::string &hex)
{
    if (hex.size() % 2 != 0)
        fatal("fromHex: odd-length hex string \"%s\"", hex.c_str());

    auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        fatal("fromHex: bad hex digit '%c'", c);
    };

    std::vector<std::uint8_t> out(hex.size() / 2);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<std::uint8_t>((nibble(hex[2 * i]) << 4) |
                                           nibble(hex[2 * i + 1]));
    }
    return out;
}

void
secureZero(void *buf, std::size_t len)
{
    auto *p = static_cast<volatile std::uint8_t *>(buf);
    while (len--)
        *p++ = 0;
}

} // namespace sentry
