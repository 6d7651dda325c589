/**
 * @file
 * Seed handling of the benchmark workloads: the generated scenario text
 * depends on the seed alone (same seed, byte-identical text; another
 * seed, different text), every generated job parses, and the held-back
 * seed is distinct from the seeds the benchmark is tuned on.
 */

#include <cstdio>
#include <string>

#include "fleet/scenario.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    }
}

} // namespace

int
main()
{
    constexpr std::uint64_t JOBS = 32;
    for (Workload workload : allWorkloads()) {
        const std::string name = workloadName(workload);
        check(parseWorkload(name) == workload, name + " round-trips");
        for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2},
                                   HELD_BACK_SEED}) {
            for (std::uint64_t j = 0; j < JOBS; ++j) {
                const JobSpec a = makeJob(workload, seed, j);
                const JobSpec b = makeJob(workload, seed, j);
                check(a.text == b.text && a.fleetSeed == b.fleetSeed,
                      name + ": same seed, same job text");
                try {
                    const sentry::fleet::Scenario scenario =
                        sentry::fleet::parseScenario(a.text, a.name);
                    check(scenario.defaultDevices == a.devices,
                          name + ": devices directive matches the job");
                } catch (const std::exception &e) {
                    check(false, name + ": job does not parse: " + e.what());
                }
            }
        }
        // A different seed changes the job stream (per job, and so
        // certainly over the first JOBS jobs).
        std::string one, two, held;
        for (std::uint64_t j = 0; j < JOBS; ++j) {
            one += makeJob(workload, 1, j).text;
            two += makeJob(workload, 2, j).text;
            held += makeJob(workload, HELD_BACK_SEED, j).text;
        }
        check(one != two, name + ": seeds 1 and 2 differ");
        check(held != one && held != two,
              name + ": held-back seed differs from tuning seeds");
        check(makeJob(workload, 1, 0).text != makeJob(workload, 1, 1).text,
              name + ": jobs of one run differ");
    }
    check(HELD_BACK_SEED > 1000,
          "held-back seed lies outside the 1..1000 tuning range");
    if (failures == 0)
        std::printf("perfbench workload seed tests: all passed\n");
    return failures == 0 ? 0 : 1;
}
