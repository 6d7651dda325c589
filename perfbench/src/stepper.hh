/**
 * @file
 * Traced step-by-step device executor.
 *
 * Runs one fleet device through a scenario the way the fleet runner
 * does, but from outside the engine: every step is a call into a
 * layer's public functions (hw boot/fork, os processes and filebench,
 * core lock/unlock/paging/audits, the attacks) wrapped in a span named
 * after that layer. It seeds and checks each device as the runner does,
 * so stepped device i must end with the simulated results runDevice
 * reports for device i (simDifference); a traced device that ends
 * not-ok or differs is a benchmark failure.
 */

#ifndef PERFBENCH_STEPPER_HH
#define PERFBENCH_STEPPER_HH

#include <memory>
#include <string>

#include "fleet/device_runner.hh"
#include "fleet/scenario.hh"
#include "tracer.hh"

namespace sentry::core
{
class Device;
}

namespace perfbench
{

/** What one stepped device did. */
struct SteppedDevice
{
    bool ok = true;
    std::string error;
    std::size_t dirtyPages = 0;       //!< DRAM pages privately written
    std::uint64_t filebenchBytes = 0; //!< bytes moved by filebench steps
    // Simulated results, as fleet::DeviceResult names them.
    sentry::Cycles simCycles = 0;
    std::uint64_t faults = 0;
    std::uint64_t bytesEncrypted = 0;
    std::uint64_t bytesDecryptedOnDemand = 0;
    std::uint64_t bytesDecryptedEager = 0;
    std::uint64_t l2Hits = 0, l2Misses = 0;
    std::uint64_t busReads = 0, busWrites = 0;
    unsigned audits = 0;
};

/** @return "" when @p stepped ended with the simulated results @p runner
 * reports for the same device, else the first field that differs. */
std::string simDifference(const SteppedDevice &stepped,
                          const sentry::fleet::DeviceResult &runner);

class Stepper
{
  public:
    /** @param options resolved fleet options (fleet::resolveFleetOptions);
     * snapshot-mode devices fork from its template, as the runner's do */
    Stepper(const sentry::fleet::Scenario &scenario,
            const sentry::fleet::FleetOptions &options, Tracer &tracer);
    ~Stepper();
    Stepper(const Stepper &) = delete;
    Stepper &operator=(const Stepper &) = delete;

    /** Run device @p index (seeded like the fleet's device @p index). */
    SteppedDevice run(unsigned index);

  private:
    const sentry::fleet::Scenario &scenario_;
    const sentry::fleet::FleetOptions &options_;
    Tracer &tracer_;
    /** Snapshot mode: the recycled fork target. */
    std::unique_ptr<sentry::core::Device> target_;
};

} // namespace perfbench

#endif // PERFBENCH_STEPPER_HH
