/**
 * @file
 * FaultSim schedule model.
 *
 * A FaultSchedule is an ordered list of FaultSpecs, each naming a fault
 * kind, a trigger ("after N operations at the kind's site, then every
 * M"), and kind-specific magnitude parameters. Schedules are
 * human-readable and round-trip through parseFaultSchedule /
 * formatFaultSchedule, so a failing fuzz trial can be written to disk
 * and replayed bit-for-bit.
 *
 * Grammar (one fault per line; '#' starts a comment):
 *
 *   fault dram_bit_flip    after N [every M] [count K]
 *   fault iram_bit_flip    after N [every M] [count K]
 *   fault bus_dup_write    after N [every M] [count K]
 *   fault bus_delay        after N [every M] [cycles C]
 *   fault lockdown_glitch  after N [every M] [count K]
 *   fault kcryptd_stall    after N [every M] [seconds S]
 *   fault power_glitch     after N [seconds S]
 *   fault dma_burst        after N [every M] [bytes B]
 *
 * Each kind has a fixed trigger site:
 *
 *   dram_bit_flip    N-th DRAM cell-array access (flip K random bits)
 *   iram_bit_flip    N-th iRAM access            (flip K random bits)
 *   bus_dup_write    N-th bus write              (replay it K times)
 *   bus_delay        N-th bus transaction        (stall C bus cycles)
 *   lockdown_glitch  N-th L2 writeback           (clear K lockdown bits)
 *   kcryptd_stall    N-th kcryptd block          (stall S seconds)
 *   power_glitch     N-th harness step           (power loss, S s off)
 *   dma_burst        N-th L2 writeback           (DMA-read B bytes
 *                                                 mid-flush)
 *
 * `after` counts from 1 (the first matching operation can fire).
 * Omitting `every` makes the fault one-shot. A kind takes only the
 * magnitude key its grammar line shows.
 */

#ifndef SENTRY_FAULT_FAULT_HH
#define SENTRY_FAULT_FAULT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace sentry::fault
{

/** Fault kinds the injector can fire. */
enum class FaultKind
{
    DramBitFlip,     //!< flip bits in the retained DRAM array
    IramBitFlip,     //!< flip bits in on-SoC SRAM
    BusDuplicateWrite, //!< replay a bus write transaction
    BusDelay,        //!< stall the interconnect for extra cycles
    LockdownGlitch,  //!< clear bits of the PL310 lockdown register
    KcryptdStall,    //!< deschedule a kcryptd worker mid-request
    PowerGlitch,     //!< brief power loss between harness steps
    DmaBurst,        //!< peripheral DMA burst racing an L2 flush
};

/** Number of FaultKind enumerators (for iteration/streams). */
constexpr unsigned FAULT_KIND_COUNT = 8;

/** @return the schedule-DSL spelling of @p kind. */
const char *faultKindName(FaultKind kind);

/** Parse/validation failure; carries the offending 1-based line. */
class FaultParseError : public std::runtime_error
{
  public:
    FaultParseError(unsigned line, const std::string &what)
        : std::runtime_error("line " + std::to_string(line) + ": " + what),
          line_(line)
    {}

    /** @return 1-based line number of the offending statement. */
    unsigned line() const { return line_; }

  private:
    unsigned line_;
};

/** One scheduled fault. */
struct FaultSpec
{
    FaultKind kind = FaultKind::DramBitFlip;
    /** Fire on the after-th matching operation (1-based). */
    std::uint64_t after = 1;
    /** Refire period after the first firing; 0 = one-shot. */
    std::uint64_t every = 0;
    /** Bits to flip / duplicates to issue / lockdown bits to clear. */
    unsigned count = 1;
    /** bus_delay: cycles to stall. */
    std::uint64_t cycles = 64;
    /** kcryptd_stall / power_glitch: stall or power-off seconds. */
    double seconds = 0.001;
    /** dma_burst: bytes to DMA-read mid-flush. */
    std::size_t bytes = 4096;
    /** 1-based source line (0 for programmatic specs). */
    unsigned line = 0;
};

/** An ordered, replayable set of faults. */
struct FaultSchedule
{
    std::vector<FaultSpec> faults;

    bool empty() const { return faults.empty(); }
};

/**
 * Parse schedule @p text (see grammar above).
 * @throws FaultParseError on any malformed or out-of-range statement
 */
FaultSchedule parseFaultSchedule(const std::string &text);

/** Serialize @p spec as one schedule line (no trailing newline). */
std::string formatFaultSpec(const FaultSpec &spec);

/**
 * Serialize @p schedule so parseFaultSchedule round-trips it to an
 * equivalent schedule (same kinds, triggers, and magnitudes).
 */
std::string formatFaultSchedule(const FaultSchedule &schedule);

} // namespace sentry::fault

#endif // SENTRY_FAULT_FAULT_HH
