/**
 * @file
 * Byte-buffer utilities: pattern fills, pattern counting (the Table 2
 * remanence methodology greps memory dumps for a repeated 8-byte pattern),
 * hex formatting, and guaranteed-not-elided secure zeroization.
 */

#ifndef SENTRY_COMMON_BYTES_HH
#define SENTRY_COMMON_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace sentry
{

/** Fill @p buf with repetitions of @p pattern (truncating the tail). */
void fillPattern(std::span<std::uint8_t> buf,
                 std::span<const std::uint8_t> pattern);

/**
 * Count non-overlapping aligned occurrences of @p pattern in @p buf.
 *
 * Matches the paper's methodology: the dump is scanned in pattern-sized
 * strides, so a partially-decayed copy does not count.
 */
std::size_t countPattern(std::span<const std::uint8_t> buf,
                         std::span<const std::uint8_t> pattern);

/** Search for @p needle anywhere in @p haystack (byte-granular). An
 * empty needle is never found. */
bool containsBytes(std::span<const std::uint8_t> haystack,
                   std::span<const std::uint8_t> needle);

/**
 * containsBytes() over a stream that arrives in chunks, for a fixed
 * set of needles, without keeping the stream: an attacker's view of
 * memory (a DMA sweep, the traffic a bus probe sees) is grepped as it
 * streams past.
 *
 * Contract: found(i) is true exactly when containsBytes(every chunk fed
 * since construction or the last reset(), concatenated in order;
 * needle i) would be.
 *
 * The one seam rule: an occurrence that crosses into a chunk starts in
 * the stream's last (longest needle - 1) bytes before it and ends in
 * the chunk's first that many bytes. The matcher carries those last
 * bytes, and a chunk shorter than the carry extends them instead of
 * replacing them, so occurrences spanning several short chunks (32-byte
 * writebacks, 4-byte uncached accesses) are found too.
 */
class StreamMatcher
{
  public:
    explicit StreamMatcher(std::vector<std::vector<std::uint8_t>> needles);

    /** Append @p chunk to the stream. */
    void feed(std::span<const std::uint8_t> chunk);

    /** Start a new stream: nothing fed, nothing found. */
    void reset();

    /** @return whether needle @p i occurs in the stream so far. */
    bool found(std::size_t i) const { return found_[i] != 0; }

    /** @return the number of needles. */
    std::size_t size() const { return needles_.size(); }

  private:
    /** Test every needle not yet found against @p bytes. */
    void search(std::span<const std::uint8_t> bytes);

    std::vector<std::vector<std::uint8_t>> needles_;
    std::vector<std::uint8_t> found_;   //!< one flag per needle
    std::size_t unfound_ = 0;           //!< non-empty needles not found
    std::size_t carry_ = 0;             //!< longest needle - 1
    std::vector<std::uint8_t> window_;  //!< carried tail, then chunk head
    std::size_t tail_ = 0;              //!< carried bytes at window_ front
};

/** @return true when every byte of @p buf is zero. */
bool allZero(std::span<const std::uint8_t> buf);

/** @return lowercase hex string of @p buf. */
std::string toHex(std::span<const std::uint8_t> buf);

/** Parse a hex string (no separators) into bytes; fatal on bad input. */
std::vector<std::uint8_t> fromHex(const std::string &hex);

/** Zero a buffer through a volatile pointer so it cannot be elided. */
void secureZero(void *buf, std::size_t len);

} // namespace sentry

#endif // SENTRY_COMMON_BYTES_HH
