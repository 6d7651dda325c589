/**
 * @file
 * Off-SoC DRAM device. Sits on the external memory bus, so every access
 * is observable by a bus monitor, and its contents survive power loss
 * according to the remanence model — both properties the paper's attacks
 * exploit.
 */

#ifndef SENTRY_HW_DRAM_HH
#define SENTRY_HW_DRAM_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "hw/bus.hh"
#include "hw/cow_bytes.hh"
#include "hw/remanence.hh"

namespace sentry::hw
{

/**
 * Row/bank geometry of the DRAM module — the Rowhammer model's map from
 * cell-array offsets to physical rows. Consecutive rowBytes-sized
 * chunks of the address space interleave across the banks, so two
 * offsets rowBytes*banks apart share a bank and sit in *physically
 * adjacent* rows — the adjacency that disturbance errors follow.
 */
struct DramGeometry
{
    std::size_t rowBytes = 8 * KiB; //!< cells per row
    unsigned banks = 8;             //!< independent banks

    /** @return the global row index holding @p offset. */
    std::size_t globalRow(PhysAddr offset) const
    {
        return offset / rowBytes;
    }

    /** @return the bank @p offset lives in. */
    unsigned bankOf(PhysAddr offset) const
    {
        return static_cast<unsigned>(globalRow(offset) % banks);
    }

    /** @return the row index *within its bank* for @p offset. */
    std::size_t rowInBank(PhysAddr offset) const
    {
        return globalRow(offset) / banks;
    }

    /** @return the cell-array offset of (bank, row-in-bank)'s first
     * byte — the inverse of bankOf()/rowInBank(). */
    PhysAddr rowBase(unsigned bank, std::size_t row_in_bank) const
    {
        return (row_in_bank * banks + bank) * rowBytes;
    }

    /** @return total rows a module of @p size bytes has. */
    std::size_t rowCount(std::size_t size) const
    {
        return (size + rowBytes - 1) / rowBytes;
    }

    /** @return rows per bank for a module of @p size bytes. */
    std::size_t rowsPerBank(std::size_t size) const
    {
        return rowCount(size) / banks;
    }
};

/** One disturbance-induced bit flip (cell-array-relative offset). */
struct FlippedBit
{
    PhysAddr offset = 0;
    unsigned bit = 0;
};

/** Knobs of the row-disturbance (Rowhammer) error model. */
struct DisturbParams
{
    /** Activations of one row within a refresh window before its
     *  bank-adjacent neighbours start to disturb. */
    std::uint32_t activationThreshold = 8192;
    /** Per-site flip probability at 2x the threshold (scales linearly
     *  with the overdrive up to this cap). */
    double flipChance = 0.25;
    /** One disturbance-vulnerable cell site per this many bytes. */
    std::size_t siteStride = 64;
};

/** Simulated DRAM module. */
class Dram : public BusTarget
{
  public:
    /** @param size capacity in bytes. */
    explicit Dram(std::size_t size);

    void busRead(PhysAddr offset, std::uint8_t *buf,
                 std::size_t len) override;
    void busWrite(PhysAddr offset, const std::uint8_t *buf,
                  std::size_t len) override;

    /** @return capacity in bytes. */
    std::size_t size() const { return data_.size(); }

    /**
     * Read-only materialized view of the whole cell array, for test
     * assertions and benchmarks; no library path uses it. Not charged
     * to the simulated clock and not visible on the bus.
     *
     * Invalidation rule: the span materializes the COW backing store
     * (every page becomes Private) and stays valid until the next
     * adoptImage() / Soc::forkFrom(). Never hold it across a fork; take
     * a fresh span instead (see cow_bytes.hh for the full contract).
     *
     * There is deliberately no mutable span: every store to the cells
     * goes through busWrite(), writeCells(), fillCells(), powerLoss(),
     * disturbAdjacentRows() or adoptImage(), all of which stamp the
     * pages they touch, so incremental scans (cells().contains()) see
     * every change.
     */
    std::span<const std::uint8_t> raw() const { return data_.contiguous(); }

    /** The cell array itself, for in-place searches (DramScanner). */
    const CowBytes &cells() const { return data_; }

    /**
     * Simulation-level store into the cell array (boot firmware, fault
     * injection, test set-up): stamped like a bus write, but not on the
     * bus, not traced and not charged to the clock.
     */
    void writeCells(PhysAddr offset, const std::uint8_t *buf,
                    std::size_t len);

    /** Fill the whole cell array with repetitions of @p pattern (the
     * Table 2 set-up), one stamped page at a time. */
    void fillCells(std::span<const std::uint8_t> pattern);

    /** Publish the cell array as an immutable COW image. */
    std::shared_ptr<const CowImage> snapshotImage() const
    {
        return data_.freeze();
    }

    /** Rebind the cell array to @p image copy-on-write. Invalidates
     * raw() spans. Also clears the activation counters: a fork adopts
     * memory *contents*, not in-flight analog cell stress, so a forked
     * device observes the same disturbance behavior as a cold boot. */
    void adoptImage(const std::shared_ptr<const CowImage> &image)
    {
        data_.adopt(image);
        activations_.clear();
    }

    /** @return pages privatized since the last adoptImage() (the
     * fork's dirty-page count). */
    std::size_t dirtyPages() const { return data_.privatePages(); }

    /** Apply cell decay for a power loss of @p off_seconds. */
    void powerLoss(double off_seconds, double celsius, Rng &rng);

    /** Wire (or with nullptr unwire) the owning Soc's trace engine. */
    void setTraceEngine(probe::TraceEngine *trace) { trace_ = trace; }

    /** @return the module's row/bank geometry. */
    const DramGeometry &geometry() const { return geometry_; }

    /**
     * Charge @p n row activations to the row holding @p offset. Only
     * attack drivers that model tight activate/precharge loops call
     * this; ordinary bus traffic is far below the disturbance
     * threshold and is not tracked.
     */
    void recordActivations(PhysAddr offset, std::uint32_t n);

    /** @return activations charged to @p global_row since the last
     * refresh. */
    std::uint32_t activationCount(std::size_t global_row) const;

    /** Refresh every row: all activation counters reset to zero. */
    void refreshRows();

    /**
     * Fire the disturbance model for the row holding
     * @p aggressor_offset: each bank-adjacent neighbour row whose
     * aggressor crossed params.activationThreshold gets per-site
     * coin flips from @p rng, and losing sites have one bit inverted
     * in the cell array. Deterministic for a given rng state.
     *
     * @return the flips applied, in ascending site order.
     */
    std::vector<FlippedBit> disturbAdjacentRows(PhysAddr aggressor_offset,
                                                Rng &rng,
                                                const DisturbParams &params);

  private:
    CowBytes data_;
    RemanenceModel remanence_;
    probe::TraceEngine *trace_ = nullptr;
    DramGeometry geometry_;
    /** Per-global-row activation counters; lazily sized, empty means
     * all zero (so untouched modules pay nothing). */
    std::vector<std::uint32_t> activations_;
};

} // namespace sentry::hw

#endif // SENTRY_HW_DRAM_HH
