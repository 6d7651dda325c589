#include "core/dram_scanner.hh"

#include <algorithm>

namespace sentry::core
{

bool
DramScanner::dramContains(std::span<const std::uint8_t> needle,
                          ScanMemo *memo) const
{
    const hw::CowBytes &cells = soc_.dram().cells();
    if (memo == nullptr)
        return cells.contains(needle);
    if (!std::ranges::equal(memo->needle, needle)) {
        memo->needle.assign(needle.begin(), needle.end());
        memo->absentAt = 0;
    }
    const bool found = cells.contains(needle, memo->absentAt);
    memo->absentAt = found ? 0 : cells.generation();
    return found;
}

bool
DramScanner::iramContains(std::span<const std::uint8_t> needle) const
{
    return soc_.iram().cells().contains(needle);
}

std::size_t
DramScanner::dramPatternCount(std::span<const std::uint8_t> pattern) const
{
    return soc_.dram().cells().countPattern(pattern);
}

std::size_t
DramScanner::iramPatternCount(std::span<const std::uint8_t> pattern) const
{
    return soc_.iram().cells().countPattern(pattern);
}

std::size_t
DramScanner::iramFirstNonZero() const
{
    return soc_.iram().cells().firstNonZero();
}

} // namespace sentry::core
