#include "hw/remanence.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "common/types.hh"

namespace sentry::hw
{

RemanenceModel::RemanenceModel(MemoryTech tech, double tau_bit_room)
    : tech_(tech),
      tauBitRoom_(tau_bit_room > 0 ? tau_bit_room : defaultTau(tech))
{
    if (tau_bit_room < 0)
        fatal("RemanenceModel: tau must be non-negative");
}

namespace
{
constexpr double ROOM_CELSIUS = 22.0;

double
temperatureScale(double celsius)
{
    // Retention roughly doubles per 10 C of cooling.
    return std::exp2((ROOM_CELSIUS - celsius) / 10.0);
}
} // namespace

double
RemanenceModel::bitSurvival(double off_seconds, double celsius) const
{
    if (off_seconds <= 0)
        return 1.0;
    const double tau = tauBitRoom_ * temperatureScale(celsius);
    return std::exp(-off_seconds / tau);
}

double
RemanenceModel::unitSurvival(double off_seconds, double celsius) const
{
    return std::pow(bitSurvival(off_seconds, celsius), 64.0);
}

void
RemanenceModel::decay(std::span<std::uint8_t> memory, double off_seconds,
                      double celsius, Rng &rng) const
{
    if (off_seconds <= 0)
        return;

    const double byteSurvival =
        std::pow(bitSurvival(off_seconds, celsius), 8.0);
    if (byteSurvival >= 1.0)
        return;

    // 16-bit threshold gives probability resolution of ~1.5e-5, enough
    // for the 97.5%-survival reflash case.
    const auto threshold =
        static_cast<std::uint32_t>(byteSurvival * 65536.0);

    // All-ones when the low 16-bit lane of @p lanes survives.
    const auto keepMask = [threshold](std::uint64_t lanes) {
        return 0u - static_cast<std::uint32_t>((lanes & 0xffff) < threshold);
    };

    // Draw from a local copy: stores into the byte array may alias the
    // caller's generator, which would pin its state to memory.
    Rng local = rng;
    std::size_t index = 0;
    while (index < memory.size()) {
        // One ground polarity per 4 KiB region.
        const std::uint8_t ground = local.chance(0.5) ? 0x00 : 0xff;
        const std::uint32_t groundWord = ground * 0x01010101u;
        const std::size_t regionEnd =
            std::min(memory.size(), (index / PAGE_SIZE + 1) * PAGE_SIZE);

        // Whole words: lane i of the draw keeps byte i when it falls
        // below the threshold. A mask blend instead of a per-byte
        // branch, which mispredicts at mid-range survival.
        for (; index + 4 <= regionEnd; index += 4) {
            const std::uint64_t lanes = local.next64();
            std::uint32_t keep = (keepMask(lanes) & 0x000000ffu) |
                                 (keepMask(lanes >> 16) & 0x0000ff00u) |
                                 (keepMask(lanes >> 32) & 0x00ff0000u) |
                                 (keepMask(lanes >> 48) & 0xff000000u);
            if constexpr (std::endian::native == std::endian::big)
                keep = __builtin_bswap32(keep);
            std::uint32_t cells;
            std::memcpy(&cells, memory.data() + index, sizeof cells);
            cells = (cells & keep) | (groundWord & ~keep);
            std::memcpy(memory.data() + index, &cells, sizeof cells);
        }
        // A partial tail word (an array whose size is not a multiple of
        // four) takes its own draw, as a whole word would.
        if (index < regionEnd) {
            std::uint64_t lanes = local.next64();
            for (; index < regionEnd; ++index) {
                if (static_cast<std::uint32_t>(lanes & 0xffff) >= threshold)
                    memory[index] = ground;
                lanes >>= 16;
            }
        }
    }
    rng = local;
}

} // namespace sentry::hw
