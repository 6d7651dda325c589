/**
 * @file
 * Data-remanence model for DRAM and SRAM (iRAM) cells.
 *
 * Calibration targets are the paper's Table 2 (room-temperature pattern
 * survival on the Tegra 3 tablet) plus the temperature behaviour reported
 * by Halderman et al. (cold boot) and Skorobogatov (low-temperature SRAM
 * remanence): retention time roughly doubles for every 10 degrees C drop.
 *
 * The model decays individual bits: each bit survives a power loss of t
 * seconds with probability exp(-t / tau_bit(T)). A "pattern unit" of 64
 * bits therefore survives with probability exp(-64 t / tau_bit(T)), which
 * with tau_bit(22C) = 17.7 s reproduces Table 2:
 *   - reflash tap (~7 ms off):   97.5% of 8-byte units survive
 *   - 2 second reset:             0.1% of units survive
 * Decayed bits collapse to the ground polarity of their 4 KiB region
 * (real DRAM cells discharge toward 0 or 1 depending on cell wiring).
 *
 * Draw layout: each 4 KiB region draws its ground, then one 64-bit
 * value per four bytes, so a full region takes 1025 draws. Memory
 * arrays decay through the CowBytes overload, which runs the active
 * host kernel (host::BytesKernel::decayPage) page by page. It jumps
 * the stream past a never-written page that would decay to itself,
 * and past a never-written (or deferred) page that would not, whose
 * decay it records for CowBytes to run when the page is read; the
 * span overload runs the portable kernel and is the reference both are
 * checked against. skipDecay() only advances the stream, for cells
 * that are cleared before anything reads them.
 */

#ifndef SENTRY_HW_REMANENCE_HH
#define SENTRY_HW_REMANENCE_HH

#include <cstdint>
#include <optional>
#include <span>

#include "common/rng.hh"
#include "hw/cow_bytes.hh"

namespace sentry::hw
{

/** Memory technology being decayed. */
enum class MemoryTech
{
    Dram,
    Sram, //!< decays ~10x more slowly than DRAM (Skorobogatov)
};

/** Stochastic cell-decay model. */
class RemanenceModel
{
  public:
    /**
     * @param tech          DRAM or SRAM decay constants
     * @param tau_bit_room  per-bit retention time constant at 22 C;
     *                      0 selects the technology default
     */
    explicit RemanenceModel(MemoryTech tech, double tau_bit_room = 0.0);

    /** @return default room-temperature tau for a technology. */
    static double
    defaultTau(MemoryTech tech)
    {
        return tech == MemoryTech::Dram ? 17.7 : 177.0;
    }

    /** @return probability that a single bit survives @p off_seconds. */
    double bitSurvival(double off_seconds, double celsius) const;

    /** @return probability that an 8-byte aligned unit survives intact. */
    double unitSurvival(double off_seconds, double celsius) const;

    /**
     * Decay @p memory in place as if power was lost for @p off_seconds at
     * @p celsius. Decayed bytes collapse to a per-4KiB-region ground
     * polarity drawn from @p rng.
     *
     * Decay is applied at byte granularity with the byte survival
     * probability implied by the bit model; this keeps a 1 GiB decay pass
     * fast while preserving unit-level survival statistics. Each region
     * draws its ground polarity, then one 64-bit draw per four bytes
     * (four 16-bit survival lanes), so decaying 4 KiB-aligned pieces
     * in order draws the same stream as one pass over the whole span.
     */
    void decay(std::span<std::uint8_t> memory, double off_seconds,
               double celsius, Rng &rng) const;

    /**
     * decay() over a copy-on-write array, page by page: same bytes and
     * same draws as the span overload over the array's contents, and
     * the same stamps. A full Zero page that draws ground 0x00 would
     * keep every byte, so the stream jumps past its draws and the page
     * stays Zero and unstamped. A full Zero page that draws 0xFF, and
     * a deferred page, is stamped and deferred
     * (CowBytes::PageRewrite::deferDecay) with the stream's state at
     * its first word draw, and the stream jumps past the page. Every
     * other page is privatized, stamped and decayed.
     */
    void decay(CowBytes &cells, double off_seconds, double celsius,
               Rng &rng) const;

    /** Advance @p rng exactly as decay() over @p bytes cells would,
     * without touching any cells. */
    void skipDecay(std::size_t bytes, double off_seconds, double celsius,
                   Rng &rng) const;

  private:
    /** @return the 16-bit lane value below which a byte survives, or
     * nothing when no byte can decay. */
    std::optional<std::uint32_t> keepThreshold(double off_seconds,
                                               double celsius) const;

    MemoryTech tech_;
    double tauBitRoom_;
};

} // namespace sentry::hw

#endif // SENTRY_HW_REMANENCE_HH
