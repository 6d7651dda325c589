#include "hw/firmware.hh"

#include "common/types.hh"
#include "hw/dram.hh"
#include "hw/iram.hh"
#include "hw/l2_cache.hh"

namespace sentry::hw
{

void
Firmware::overwriteBootSlice(Dram &dram, double fraction, Rng &rng) const
{
    // The loader and kernel image land on scattered physical pages;
    // model as randomly chosen 4 KiB pages filled with image bytes.
    const std::size_t totalPages = dram.size() / PAGE_SIZE;
    const auto pagesToWrite =
        static_cast<std::size_t>(fraction * static_cast<double>(totalPages));

    std::uint8_t image[PAGE_SIZE];
    for (std::size_t i = 0; i < pagesToWrite; ++i) {
        const std::size_t page = rng.below(totalPages);
        // Boot-image contents: deterministic-looking code bytes.
        for (std::size_t off = 0; off < PAGE_SIZE; off += 8) {
            const std::uint64_t word = rng.next64();
            for (std::size_t b = 0; b < 8; ++b)
                image[off + b] = static_cast<std::uint8_t>(word >> (8 * b));
        }
        dram.writeCells(page * PAGE_SIZE, image, PAGE_SIZE);
    }
}

void
Firmware::coldBoot(Dram &dram, Iram &iram, L2Cache &l2, Rng &rng) const
{
    iram.zeroize();
    l2.resetAndZero();
    overwriteBootSlice(dram, footprint_.coldOverwriteFraction, rng);
}

void
Firmware::warmBoot(Dram &dram, L2Cache &l2, Rng &rng) const
{
    // No power loss: iRAM keeps its contents (Table 2 row 1: 100%).
    // Caches are invalidated without writeback by the reset sequence.
    l2.resetAndZero();
    overwriteBootSlice(dram, footprint_.warmOverwriteFraction, rng);
}

bool
Firmware::acceptImage(std::span<const std::uint8_t> image,
                      bool signed_by_manufacturer) const
{
    return !image.empty() && signed_by_manufacturer;
}

} // namespace sentry::hw
