#include "common/bytes.hh"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "common/logging.hh"
#include "host/kernels.hh"

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
    return host::kernels().bytes.countPattern(buf.data(), buf.size(),
                                              pattern.data(),
                                              pattern.size());
}

bool
containsBytes(std::span<const std::uint8_t> haystack,
              std::span<const std::uint8_t> needle)
{
    // The fleet audits scan every device's whole DRAM after every
    // scenario step, so this path is hot and kernel-dispatched.
    return host::kernels().bytes.containsBytes(haystack.data(),
                                               haystack.size(),
                                               needle.data(),
                                               needle.size());
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
    return host::kernels().bytes.allZero(buf.data(), buf.size());
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
