/**
 * @file
 * On-SoC internal SRAM (iRAM).
 *
 * iRAM is *not* a BusTarget on the external memory bus: CPU accesses to
 * it stay inside the SoC and are invisible to a bus-monitoring probe.
 * DMA controllers, however, can address it like any other system memory
 * unless TrustZone protection is enabled (paper section 4.4) — the DMA
 * path therefore goes through dmaRead/dmaWrite, which consult the
 * TrustZone access-control hook.
 *
 * Physically the array is SRAM: it keeps its contents across a power
 * blip far longer than DRAM, but the platform's boot firmware zeroes it
 * on every cold boot, which is what actually makes it cold-boot safe
 * (Table 2: 0% recovered after any power loss).
 */

#ifndef SENTRY_HW_IRAM_HH
#define SENTRY_HW_IRAM_HH

#include <cstdint>
#include <memory>
#include <span>

#include "common/rng.hh"
#include "common/trace_engine.hh"
#include "common/types.hh"
#include "hw/cow_bytes.hh"
#include "hw/remanence.hh"

namespace sentry::hw
{

/** On-chip SRAM device. */
class Iram
{
  public:
    /** @param size capacity in bytes (256 KiB on Tegra 3). */
    explicit Iram(std::size_t size);

    /** CPU-side read (on-SoC; never observable on the external bus). */
    void read(PhysAddr offset, std::uint8_t *buf, std::size_t len) const;

    /** CPU-side write. */
    void write(PhysAddr offset, const std::uint8_t *buf, std::size_t len);

    /** @return capacity in bytes. */
    std::size_t size() const { return data_.size(); }

    /**
     * Read-only materialized view of the whole array, for test
     * assertions and benchmarks. Not charged and not traced.
     *
     * Invalidation rule: the span materializes the COW backing store
     * and stays valid until the next adoptImage() / Soc::forkFrom().
     * Never hold it across a fork; take a fresh span instead (see
     * cow_bytes.hh for the full contract).
     */
    std::span<const std::uint8_t> raw() const { return data_.contiguous(); }

    /** The cell array itself, for in-place searches. */
    const CowBytes &cells() const { return data_; }

    /**
     * Simulation-level store into the array (fault injection):
     * stamped like write(), but not traced. As with Dram, every store
     * stamps the pages it touches.
     */
    void writeCells(PhysAddr offset, const std::uint8_t *buf,
                    std::size_t len);

    /** Fill the whole array with repetitions of @p pattern (the
     * Table 2 set-up), one stamped page at a time. */
    void fillCells(std::span<const std::uint8_t> pattern)
    {
        data_.fillPattern(pattern);
    }

    /** Publish the cell array as an immutable COW image. */
    std::shared_ptr<const CowImage> snapshotImage() const
    {
        return data_.freeze();
    }

    /** Rebind the cell array to @p image copy-on-write. Invalidates
     * raw() spans. */
    void adoptImage(const std::shared_ptr<const CowImage> &image)
    {
        data_.adopt(image);
    }

    /** @return pages privatized since the last adoptImage(). */
    std::size_t dirtyPages() const { return data_.privatePages(); }

    /** Apply SRAM cell decay for a power loss. */
    void powerLoss(double off_seconds, double celsius, Rng &rng);

    /** Advance @p rng as powerLoss() would and leave the cells alone:
     * the power cycle's boot ROM zeroes them before anything reads
     * them. */
    void skipPowerLoss(double off_seconds, double celsius, Rng &rng) const;

    /** Zero the whole array (the boot-firmware behaviour). */
    void zeroize();

    /** Wire (or with nullptr unwire) the owning Soc's trace engine. */
    void setTraceEngine(probe::TraceEngine *trace) { trace_ = trace; }

  private:
    void checkRange(PhysAddr offset, std::size_t len) const;

    CowBytes data_;
    RemanenceModel remanence_;
    probe::TraceEngine *trace_ = nullptr;
};

} // namespace sentry::hw

#endif // SENTRY_HW_IRAM_HH
