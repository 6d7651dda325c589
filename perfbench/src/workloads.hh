/**
 * @file
 * Benchmark workloads: seed-generated fleet jobs.
 *
 * A job is one fleet::runFleet call. Its scenario text is a pure
 * function of (workload, seed, job ordinal): the same seed gives
 * byte-identical scenarios, a different seed different ones, and the
 * simulator only ever sees the generated text plus the engine options
 * below. Each workload stresses a different layer (see BENCHMARK.json).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fleet/device_runner.hh"

namespace perfbench
{

enum class Workload
{
    InteractiveDay, //!< 8 cold-booted devices living a jittered day
    Population,     //!< 4096 forks of one warm template, tiny scenario
    AttackJobs,     //!< 8 forks of a per-job template under all ten attacks
};

/** Seed never used while tuning; re-check any claimed gain on it. */
constexpr std::uint64_t HELD_BACK_SEED = 0x5eed0f1ee7ULL;

/** @return every workload, in BENCHMARK.json order. */
std::vector<Workload> allWorkloads();

/** @return the BENCHMARK.json name of @p workload. */
const char *workloadName(Workload workload);

/** @return the workload named @p name, or nullopt. */
std::optional<Workload> parseWorkload(const std::string &name);

/** One job as a client submits it. */
struct JobSpec
{
    std::string name; //!< "<workload>-<ordinal>"
    std::string text; //!< scenario DSL (devices/audits/defense included)
    unsigned devices = 1;
    sentry::fleet::SpawnMode spawnMode = sentry::fleet::SpawnMode::ColdBoot;
    /** Fork the warm template built once at set-up (else the job's
     * runFleet call builds its own, as a client without a registry). */
    bool sharedTemplate = false;
    bool retainResults = true;
    std::size_t dramBytes = 16 * sentry::MiB; //!< FleetOptions' default
    std::uint64_t fleetSeed = 0; //!< per-job fleet seed (device seeds)
};

/** @return job @p ordinal of @p workload under @p seed. */
JobSpec makeJob(Workload workload, std::uint64_t seed, std::uint64_t ordinal);

/** @return the fleet options a job runs with on @p threads workers. */
sentry::fleet::FleetOptions jobOptions(const JobSpec &job, unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
