/**
 * @file
 * Filebench-style workload engine for the dm-crypt evaluation
 * (paper Figure 9): sequential reads, random reads, and a mixed random
 * read/write workload, each runnable through the buffer cache or with
 * direct I/O.
 *
 * Each run first "creates the files" (writes the whole working set,
 * warming the buffer cache exactly as the paper describes), then runs
 * the measured I/O phase.
 */

#ifndef SENTRY_OS_FILEBENCH_HH
#define SENTRY_OS_FILEBENCH_HH

#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "common/sim_clock.hh"
#include "os/buffer_cache.hh"

namespace sentry::os
{

/** Workload shapes from the paper. */
enum class FilebenchWorkload
{
    SeqRead,
    RandRead,
    RandRW, //!< 50/50 mix
};

/** Number of FilebenchWorkload enumerators. */
constexpr unsigned FILEBENCH_WORKLOAD_COUNT = 3;

/** @return workload name as used in the paper's figure. */
const char *filebenchWorkloadName(FilebenchWorkload workload);

/** Result of one run. */
struct FilebenchResult
{
    std::uint64_t bytesMoved = 0;
    double seconds = 0.0;

    double
    mbPerSec() const
    {
        return seconds > 0
                   ? static_cast<double>(bytesMoved) / (1024.0 * 1024.0) /
                         seconds
                   : 0.0;
    }
};

/** The workload driver. */
class Filebench
{
  public:
    /**
     * @param clock       simulated clock used for timing windows
     * @param cache       the buffer cache over the device under test
     * @param working_set_bytes size of the file set
     */
    Filebench(SimClock &clock, BufferCache &cache,
              std::size_t working_set_bytes);

    /**
     * Run a workload.
     * @param workload   access pattern
     * @param io_bytes   bytes of I/O to issue in the measured phase
     * @param direct_io  bypass the buffer cache
     * @param rng        randomness for block selection
     */
    FilebenchResult run(FilebenchWorkload workload, std::size_t io_bytes,
                        bool direct_io, Rng &rng);

  private:
    void createFiles();

    SimClock &clock_;
    BufferCache &cache_;
    std::uint64_t workingSetBlocks_;
};

} // namespace sentry::os

#endif // SENTRY_OS_FILEBENCH_HH
