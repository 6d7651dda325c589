#include "workloads.hh"

#include <algorithm>
#include <array>
#include <sstream>

#include "common/rng.hh"

namespace perfbench
{

using namespace sentry;

namespace
{

/** Per-workload stream tags for fleet::samplePriority (arbitrary). */
constexpr std::uint64_t TAG_DAY = 0x6461792d6a6f6273ULL;
constexpr std::uint64_t TAG_POPULATION = 0x706f702d6a6f6273ULL;
constexpr std::uint64_t TAG_ATTACK = 0x61746b2d6a6f6273ULL;
constexpr std::uint64_t TAG_FLEET_SEED = 0x666c6565742d7364ULL;

/** DRAM of the 8-device jobs. With the engine's 16 MiB default a job
 * takes 0.3-0.5 s (full-DRAM audits, dumps and boots), too long for 100
 * jobs in one run; every working set fits in 4 MiB. */
constexpr std::size_t SMALL_DRAM = 4 * MiB;

/**
 * Draws one size or duration of a job around the built-in preset's
 * value (src/fleet/scenario.cc): @p preset scaled by a factor drawn
 * from {0.75, 0.875, 1, 1.125, 1.25}, so the seed varies each job while
 * the workload stays centred on the scenario the repo's own benches
 * and tests run.
 */
class Draw
{
  public:
    explicit Draw(std::uint64_t seed) : rng_(seed) {}

    std::string
    kib(std::size_t preset)
    {
        return std::to_string(around(preset)) + "KiB";
    }

    std::string
    us(std::size_t preset)
    {
        return std::to_string(around(preset)) + "us";
    }

    Rng &rng() { return rng_; }

  private:
    std::size_t
    around(std::size_t preset)
    {
        return preset * (6 + rng_.below(5)) / 8;
    }

    Rng rng_;
};

/**
 * The interactive-day preset with a background sync agent (the
 * background-mail preset's app and its locked-screen touch) added, and
 * jitter 20 instead of 30: a sensitive mail client with a DMA buffer,
 * the sync agent paged through locked cache ways, a plain game; four
 * lock/unlock cycles with touched working sets, one DMA probe of the
 * locked device, filebench through dm-crypt and suspend/wake.
 */
std::string
interactiveDay(Draw &d)
{
    std::ostringstream s;
    s << "devices 8\nplatform tegra3\njitter 20\naudits every_step\n"
         "defense sentry\n";
    s << "spawn mail sensitive heap " << d.kib(512) << " dma " << d.kib(64)
      << '\n';
    s << "spawn sync sensitive background heap " << d.kib(256) << '\n';
    s << "spawn game heap " << d.kib(256) << '\n';
    s << "touch mail " << d.kib(128) << '\n';
    s << "lock\ntouch sync " << d.kib(32) << '\n';
    s << "sleep " << d.us(2000000) << "\nunlock 0000\n";
    s << "touch mail " << d.kib(64) << "\ntouch game " << d.kib(64) << '\n';
    s << "lock\nsleep " << d.us(500000) << "\nattack dma\nunlock 0000\n";
    s << "filebench " << d.kib(2048) << " randread\n";
    s << "lock\nsuspend " << d.us(5000000) << "\nwake\nunlock 0000\n";
    s << "touch mail " << d.kib(256) << '\n';
    s << "lock\nsleep " << d.us(250000) << "\nunlock 0000\nzero_freed\n";
    return s.str();
}

/**
 * The fleet-scale preset with jitter 0, so every device of the job runs
 * the identical smallest unit of work that still pages real memory and
 * the engine's dispatch/fork/merge path dominates.
 */
std::string
population(Draw &d)
{
    const std::string heap = d.kib(16);
    std::ostringstream s;
    s << "devices 4096\nshards 256\naudits transitions\n";
    s << "spawn app sensitive heap " << heap << "\ntouch app " << heap
      << '\n';
    s << "sleep " << d.us(5000) << "\ntouch app " << d.kib(8) << '\n';
    return s.str();
}

/**
 * The attack-campaign preset with all ten verbs instead of four and a
 * rotating backend: the locked device is hit by the seven live verbs
 * in a drawn order, then by the three cold-boot verbs (they reset the
 * device, so they close the schedule), again in a drawn order, each
 * frozen or not. Backends rotate by job ordinal.
 */
std::string
attackCampaign(Draw &d, std::uint64_t ordinal)
{
    static const char *const BACKENDS[] = {"sentry", "amnesia", "memshield"};
    std::array<const char *, 7> live = {
        "dma",         "bus_monitor",  "code_injection", "prime_probe",
        "evict_reload", "rowhammer",   "tz_side_channel"};
    std::array<const char *, 3> coldBoot = {"cold_boot", "os_reboot",
                                            "2s_reset"};
    Rng &rng = d.rng();
    const auto shuffle = [&rng](auto &verbs) {
        for (std::size_t i = verbs.size(); i > 1; --i)
            std::swap(verbs[i - 1], verbs[rng.below(i)]);
    };
    std::ostringstream s;
    s << "devices 8\naudits every_step\ndefense " << BACKENDS[ordinal % 3]
      << '\n';
    s << "spawn wallet sensitive heap " << d.kib(128) << '\n';
    s << "spawn leaky heap " << d.kib(64) << '\n';
    s << "touch wallet " << d.kib(32) << '\n';
    s << "lock\nsleep " << d.us(100000) << '\n';
    shuffle(live);
    shuffle(coldBoot);
    for (const char *verb : live)
        s << "attack " << verb << '\n';
    for (const char *verb : coldBoot)
        s << "attack " << verb << (rng.chance(0.5) ? " frozen" : "") << '\n';
    return s.str();
}

} // namespace

std::vector<Workload>
allWorkloads()
{
    return {Workload::InteractiveDay, Workload::Population,
            Workload::AttackJobs};
}

const char *
workloadName(Workload workload)
{
    switch (workload) {
      case Workload::InteractiveDay:
        return "interactive_day";
      case Workload::Population:
        return "population";
      case Workload::AttackJobs:
        return "attack_jobs";
    }
    return "?";
}

std::optional<Workload>
parseWorkload(const std::string &name)
{
    for (Workload workload : allWorkloads()) {
        if (name == workloadName(workload))
            return workload;
    }
    return std::nullopt;
}

JobSpec
makeJob(Workload workload, std::uint64_t seed, std::uint64_t ordinal)
{
    JobSpec job;
    job.name = std::string(workloadName(workload)) + "-" +
               std::to_string(ordinal);
    job.fleetSeed = fleet::samplePriority(seed, TAG_FLEET_SEED, ordinal);
    switch (workload) {
      case Workload::InteractiveDay: {
        Draw draw(fleet::samplePriority(seed, TAG_DAY, ordinal));
        job.text = interactiveDay(draw);
        job.devices = 8;
        job.dramBytes = SMALL_DRAM;
        break;
      }
      case Workload::Population: {
        Draw draw(fleet::samplePriority(seed, TAG_POPULATION, ordinal));
        job.text = population(draw);
        job.devices = 4096;
        job.spawnMode = fleet::SpawnMode::Snapshot;
        job.sharedTemplate = true;
        job.retainResults = false;
        break;
      }
      case Workload::AttackJobs: {
        Draw draw(fleet::samplePriority(seed, TAG_ATTACK, ordinal));
        job.text = attackCampaign(draw, ordinal);
        job.devices = 8;
        job.dramBytes = SMALL_DRAM;
        job.spawnMode = fleet::SpawnMode::Snapshot;
        break;
      }
    }
    return job;
}

fleet::FleetOptions
jobOptions(const JobSpec &job, unsigned threads)
{
    fleet::FleetOptions options;
    options.devices = job.devices;
    options.threads = threads;
    options.seed = job.fleetSeed;
    options.spawnMode = job.spawnMode;
    options.retainResults = job.retainResults;
    options.dramBytes = job.dramBytes;
    return options;
}

} // namespace perfbench
