#include "hw/remanence.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/types.hh"
#include "host/kernels.hh"

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

/** One ground polarity per 4 KiB region. */
std::uint8_t
drawGround(Rng &rng)
{
    return rng.chance(0.5) ? 0x00 : 0xff;
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

std::optional<std::uint32_t>
RemanenceModel::keepThreshold(double off_seconds, double celsius) const
{
    if (off_seconds <= 0)
        return std::nullopt;
    const double byteSurvival =
        std::pow(bitSurvival(off_seconds, celsius), 8.0);
    if (byteSurvival >= 1.0)
        return std::nullopt;
    // 16-bit threshold gives probability resolution of ~1.5e-5, enough
    // for the 97.5%-survival reflash case.
    return static_cast<std::uint32_t>(byteSurvival * 65536.0);
}

void
RemanenceModel::decay(std::span<std::uint8_t> memory, double off_seconds,
                      double celsius, Rng &rng) const
{
    const auto threshold = keepThreshold(off_seconds, celsius);
    if (!threshold)
        return;
    const host::BytesKernel &kernel = host::portableKernels().bytes;
    for (std::size_t index = 0; index < memory.size(); index += PAGE_SIZE) {
        const std::uint8_t ground = drawGround(rng);
        const std::size_t len = std::min(PAGE_SIZE, memory.size() - index);
        rng.setState(kernel.decayPage(memory.data() + index, len,
                                      rng.state(), *threshold, ground));
    }
}

void
RemanenceModel::skipDecay(std::size_t bytes, double off_seconds,
                          double celsius, Rng &rng) const
{
    if (!keepThreshold(off_seconds, celsius))
        return;
    for (std::size_t index = 0; index < bytes; index += PAGE_SIZE) {
        drawGround(rng);
        const std::size_t len = std::min(PAGE_SIZE, bytes - index);
        if (len == PAGE_SIZE) {
            rng.jumpPage();
            continue;
        }
        for (std::size_t word = 0; word < (len + 3) / 4; ++word)
            rng.next64();
    }
}

void
RemanenceModel::decay(CowBytes &cells, double off_seconds, double celsius,
                      Rng &rng) const
{
    const auto threshold = keepThreshold(off_seconds, celsius);
    if (!threshold)
        return;
    static_assert(PAGE_SIZE / 4 == Rng::PAGE_JUMP_DRAWS);
    const host::BytesKernel &kernel = host::kernels().bytes;
    cells.rewritePages([&](const CowBytes::PageRewrite &page) {
        const std::uint8_t ground = drawGround(rng);
        const bool fullZero = page.isZero() && page.size() == PAGE_SIZE;
        if (fullZero && ground == 0x00) {
            // Zero cells that decay toward 0x00 keep every byte.
            rng.jumpPage();
            return;
        }
        if (fullZero || page.isDeferred()) {
            // Cells holding only 0x00 and 0xFF cannot hold a secret:
            // record the decay and run it when something reads them.
            page.deferDecay(rng.state(), *threshold, ground);
            rng.jumpPage();
            return;
        }
        const std::span<std::uint8_t> bytes = page.bytes();
        rng.setState(kernel.decayPage(bytes.data(), bytes.size(),
                                      rng.state(), *threshold, ground));
    });
}

} // namespace sentry::hw
