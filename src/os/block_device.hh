/**
 * @file
 * Block layer: the abstract sector interface plus a RAM-backed block
 * device (the paper's dm-crypt evaluation runs on a 450 MB in-memory
 * partition so the disk is never the bottleneck).
 */

#ifndef SENTRY_OS_BLOCK_DEVICE_HH
#define SENTRY_OS_BLOCK_DEVICE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/sim_clock.hh"
#include "common/types.hh"

namespace sentry::os
{

/** Block size used by the whole stack (matches the page size). */
constexpr std::size_t BLOCK_SIZE = 4 * KiB;

/** Anything that can serve 4 KiB blocks. */
class BlockLayer
{
  public:
    virtual ~BlockLayer() = default;

    /** Read block @p index into @p buf (BLOCK_SIZE bytes). */
    virtual void readBlock(std::uint64_t index,
                           std::span<std::uint8_t> buf) = 0;

    /** Write block @p index from @p buf. */
    virtual void writeBlock(std::uint64_t index,
                            std::span<const std::uint8_t> buf) = 0;

    /** @return number of blocks. */
    virtual std::uint64_t numBlocks() const = 0;
};

/** RAM-backed block device with a fixed streaming rate. */
class RamBlockDevice : public BlockLayer
{
  public:
    /**
     * @param clock          simulated clock to charge transfer time to
     * @param bytes          capacity (multiple of BLOCK_SIZE)
     * @param bytes_per_sec  device streaming rate
     */
    RamBlockDevice(SimClock &clock, std::size_t bytes,
                   double bytes_per_sec = 400e6);

    void readBlock(std::uint64_t index,
                   std::span<std::uint8_t> buf) override;
    void writeBlock(std::uint64_t index,
                    std::span<const std::uint8_t> buf) override;
    std::uint64_t numBlocks() const override;

    /** Direct storage view for test assertions (what is "on disk"). */
    std::span<const std::uint8_t> raw() const { return storage_; }

  private:
    SimClock &clock_;
    std::vector<std::uint8_t> storage_;
    double bytesPerSec_;
};

} // namespace sentry::os

#endif // SENTRY_OS_BLOCK_DEVICE_HH
