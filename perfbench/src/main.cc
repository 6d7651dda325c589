/**
 * @file
 * Fleet benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--trace-dir DIR]
 *
 * One process is one closed-loop client with one job outstanding: it
 * generates job N's scenario from the seed, submits it (parse +
 * fleet::runFleet on min(4, nproc) workers), waits for the report, and
 * only then builds job N+1. It runs for --seconds and at least
 * MIN_JOBS jobs, checks every report, and prints one JSON line last:
 * the end-to-end metrics with --trace 0, the per-layer metrics of the
 * traced run (stepper.hh) with --trace 1. A run whose outputs fail a
 * check prints "correct": false with no metrics and exits 1.
 *
 * setup_s is timed on fresh copies of this program started with
 * --setup-only 1 (plus --workload and --seed): such a copy does the
 * client's set-up, prints "ready" and exits.
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "core/device.hh"
#include "fleet/fleet.hh"
#include "host/kernels.hh"
#include "stepper.hh"
#include "tracer.hh"
#include "workloads.hh"

using namespace sentry;
using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

/** Jobs per run at least, so p90 has >= 10 samples beyond it. */
constexpr std::uint64_t MIN_JOBS = 100;
/** The sim_* end-to-end values are means over these first jobs, so
 * they are a pure function of the seed. */
constexpr std::uint64_t SIM_JOBS = MIN_JOBS;
/** Jobs per devices_per_s window. */
constexpr std::size_t THROUGHPUT_WINDOW = 10;
/** Fresh set-up processes per run; setup_s is their median. */
constexpr int SETUP_REPS = 25;
/** Wall-clock guard: stop submitting past this many seconds. */
constexpr double HARD_STOP_SECONDS = 150.0;
/** Traced run: jobs traced, devices stepped per job. */
constexpr std::uint64_t TRACE_JOBS = 3;
constexpr unsigned STEP_DEVICES = 8;
/** Probe repetitions in the traced run. */
constexpr int PROBE_REPS = 5;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> values)
{
    return values.empty() ? 0.0 : fleet::percentile(std::move(values), 50.0);
}

struct Args
{
    Workload workload = Workload::InteractiveDay;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string traceDir = ".bench_build/traces";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "interactive_day|population|attack_jobs --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            const auto workload = parseWorkload(value);
            if (!workload)
                usage(("unknown workload " + value).c_str());
            args.workload = *workload;
            haveWorkload = true;
        } else if (flag == "--seed") {
            if (value == "held-back") {
                args.seed = HELD_BACK_SEED;
                continue;
            }
            args.seed = std::strtoull(value.c_str(), &end, 0);
            if (end == value.c_str() || *end != '\0')
                usage("malformed --seed (a number, or held-back)");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || args.seconds <= 0)
                usage("malformed --seconds");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--setup-only") {
            args.setupOnly = value == "1";
        } else if (flag == "--trace-dir") {
            args.traceDir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return args;
}

unsigned
workerThreads()
{
    return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

/** @return the process's peak resident set (VmHWM) in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** Host facts every result is recorded next to. */
void
printHost(unsigned threads)
{
    const host::Kernels &k = host::kernels();
    std::printf("host: cpu_features=\"%s\" aes_tier=%s bytes_tier=%s "
                "nproc=%u threads=%u\n",
                host::hostFeaturesKey().c_str(), k.aes.tier, k.bytes.tier,
                std::thread::hardware_concurrency(), threads);
}

double
metricValue(const fleet::FleetReport &report, const std::string &name)
{
    const fleet::FleetMetric *metric = report.find(name);
    if (metric == nullptr)
        throw std::runtime_error("fleet report lacks " + name);
    return metric->isInt ? static_cast<double>(metric->u) : metric->d;
}

/** Every sim_ metric of @p report as one comparable string. */
std::string
simFingerprint(const fleet::FleetReport &report)
{
    std::string out;
    for (const fleet::FleetMetric &metric : report.metrics) {
        if (metric.name.rfind("sim_", 0) == 0)
            out += metric.name + '=' + metric.jsonValue() + '\n';
    }
    return out;
}

// ---- one job -------------------------------------------------------------

using Template = std::shared_ptr<const core::DeviceSnapshot>;

fleet::FleetOptions
submitOptions(const JobSpec &job, const Template &shared, unsigned threads)
{
    fleet::FleetOptions options = jobOptions(job, threads);
    if (job.sharedTemplate)
        options.templateSnapshot = shared;
    return options;
}

/** Submit @p job and wait for its report (the closed loop's one step). */
fleet::FleetReport
submit(const JobSpec &job, const Template &shared, unsigned threads)
{
    const fleet::Scenario scenario = fleet::parseScenario(job.text, job.name);
    return fleet::runFleet(scenario, submitOptions(job, shared, threads));
}

/** Checks every report must pass; @return the first failure or "". */
std::string
checkReport(const fleet::FleetReport &report)
{
    if (!report.allOk)
        return report.summary();
    if (metricValue(report, "sim_sensitive_leaks") != 0)
        return "sensitive secret leaked in " + report.scenario;
    if (metricValue(report, "sim_defense_claim_breaches") != 0)
        return "a backend breached a threat it claims in " +
               report.scenario;
    return "";
}

// ---- set-up --------------------------------------------------------------

/**
 * What the client does before it can submit job 0: pick the host
 * kernel tier, generate and parse job 0's scenario, and build the
 * shared warm template when the workload has one.
 * @return the shared template (null when jobs build their own)
 */
Template
prepare(Workload workload, std::uint64_t seed, unsigned threads)
{
    host::kernels();
    const JobSpec first = makeJob(workload, seed, 0);
    const fleet::Scenario scenario =
        fleet::parseScenario(first.text, first.name);
    if (!first.sharedTemplate)
        return nullptr;
    return fleet::resolveFleetOptions(scenario, jobOptions(first, threads))
        .templateSnapshot;
}

/**
 * Start a fresh copy of this program (@p self) in --setup-only mode and
 * time it from spawn until it reports ready: process start, loading,
 * static set-up and prepare(). Waits for the copy to exit.
 * @throws std::runtime_error when the copy fails
 */
double
timeFreshSetUp(const char *self, const Args &args)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::string seed = std::to_string(args.seed);
    std::string workload = workloadName(args.workload);
    std::string flags[] = {"--workload", "--seed", "--setup-only", "1"};
    char *argv[] = {const_cast<char *>(self),     flags[0].data(),
                    workload.data(),              flags[1].data(),
                    seed.data(),                  flags[2].data(),
                    flags[3].data(),              nullptr};
    pid_t pid = 0;
    const auto t0 = Clock::now();
    const int spawned =
        posix_spawn(&pid, self, &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (spawned != 0) {
        close(fds[0]);
        throw std::runtime_error("cannot start " + std::string(self));
    }
    std::string out;
    double seconds = -1.0;
    char buf[64];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
        if (seconds < 0 && out.find('\n') != std::string::npos)
            seconds = since(t0);
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (seconds < 0 || out != "ready\n" || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error("fresh set-up process failed");
    return seconds;
}

/** Model-side results of one job (all deterministic). */
struct SimSample
{
    double deviceMcycles = 0.0; //!< simulated cycles per device / 1e6
    double busKib = 0.0;        //!< simulated bus bytes per device / KiB
    double lockMs = 0.0, unlockMs = 0.0, filebenchMbps = 0.0;
};

SimSample
simSample(const fleet::FleetReport &report)
{
    const double devices = report.devices;
    SimSample s;
    s.deviceMcycles =
        metricValue(report, "sim_cycles_total") / devices / 1e6;
    s.busKib =
        metricValue(report, "sim_trace_bus_bytes_total") / devices / 1024.0;
    s.lockMs = metricValue(report, "sim_lock_p50_us") / 1e3;
    s.unlockMs = metricValue(report, "sim_unlock_p50_us") / 1e3;
    s.filebenchMbps = metricValue(report, "sim_filebench_mbps_mean");
    return s;
}

double
meanOf(const std::vector<SimSample> &samples, double SimSample::*field)
{
    double sum = 0.0;
    for (const SimSample &s : samples)
        sum += s.*field;
    return samples.empty() ? 0.0 : sum / samples.size();
}

// ---- output --------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    if (correct) {
        for (std::size_t i = 0; i < metrics.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", metrics[i].name.c_str(),
                        metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

void
printTable(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

// ---- timed run -----------------------------------------------------------

int
timedRun(const Args &args, const char *self, unsigned threads,
         Clock::time_point processStart)
{
    const Template templ = prepare(args.workload, args.seed, threads);
    const double ownSetup = since(processStart);
    std::vector<double> setups;
    for (int rep = 0; rep < SETUP_REPS; ++rep)
        setups.push_back(timeFreshSetUp(self, args));
    const double setupSeconds = median(setups);
    std::printf("setup: median %.6f s over %d fresh processes "
                "(%.6f .. %.6f), this process %.6f s from main\n",
                setupSeconds, SETUP_REPS,
                *std::min_element(setups.begin(), setups.end()),
                *std::max_element(setups.begin(), setups.end()), ownSetup);

    std::vector<double> jobMs, jobEnds; // ends: seconds into the loop
    std::vector<SimSample> sims;
    std::uint64_t devices = 0, failedDevices = 0, leaks = 0, breaches = 0;
    std::string failure, firstFingerprint;
    const auto loopStart = Clock::now();
    for (std::uint64_t j = 0;; ++j) {
        const double elapsed = since(loopStart);
        if ((elapsed >= args.seconds && j >= MIN_JOBS) ||
            elapsed >= HARD_STOP_SECONDS)
            break;
        const JobSpec job = makeJob(args.workload, args.seed, j);
        const auto t0 = Clock::now();
        const fleet::FleetReport report = submit(job, templ, threads);
        jobMs.push_back(since(t0) * 1e3);
        jobEnds.push_back(since(loopStart));

        devices += report.devices;
        failedDevices += report.failedDevices;
        leaks += static_cast<std::uint64_t>(
            metricValue(report, "sim_sensitive_leaks"));
        breaches += static_cast<std::uint64_t>(
            metricValue(report, "sim_defense_claim_breaches"));
        if (failure.empty())
            failure = checkReport(report);
        if (j == 0)
            firstFingerprint = simFingerprint(report);
        if (j < SIM_JOBS)
            sims.push_back(simSample(report));
    }
    const double loopSeconds = since(loopStart);
    if (failure.empty() && jobMs.size() < MIN_JOBS)
        failure = "only " + std::to_string(jobMs.size()) + " of " +
                  std::to_string(MIN_JOBS) + " jobs ran before the " +
                  std::to_string(static_cast<int>(HARD_STOP_SECONDS)) +
                  " s hard stop";

    // Replay gate: job 0 on one worker must reproduce every sim_ metric.
    const fleet::FleetReport serial =
        submit(makeJob(args.workload, args.seed, 0), templ, 1);
    if (failure.empty() && simFingerprint(serial) != firstFingerprint)
        failure = "1-thread rerun of job 0 changed sim_ metrics:\n" +
                  simFingerprint(serial) + "---\n" + firstFingerprint;

    // Throughput per window of THROUGHPUT_WINDOW consecutive jobs
    // (every job of one workload has the same device count); the median
    // window keeps a stall on a shared host from moving the run's value.
    std::vector<double> windowRates;
    const double jobDevices =
        jobMs.empty() ? 0.0 : static_cast<double>(devices) / jobMs.size();
    for (std::size_t end = THROUGHPUT_WINDOW; end <= jobEnds.size();
         end += THROUGHPUT_WINDOW) {
        const double start =
            end == THROUGHPUT_WINDOW ? 0.0 : jobEnds[end - 1 -
                                                     THROUGHPUT_WINDOW];
        windowRates.push_back(THROUGHPUT_WINDOW * jobDevices /
                              (jobEnds[end - 1] - start));
    }

    const std::vector<Metric> metrics = {
        {"devices_per_s", median(windowRates), "1/s"},
        {"job_p50_ms", fleet::percentile(jobMs, 50.0), "ms"},
        {"job_p90_ms", fleet::percentile(jobMs, 90.0), "ms"},
        {"setup_s", setupSeconds, "s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
        {"sim_device_mcycles", meanOf(sims, &SimSample::deviceMcycles),
         "Mcycle"},
        {"sim_bus_kib_per_device", meanOf(sims, &SimSample::busKib),
         "KiB"},
    };
    std::printf("%s: %zu jobs, %llu devices in %.3f s on %u threads\n",
                workloadName(args.workload), jobMs.size(),
                static_cast<unsigned long long>(devices), loopSeconds,
                threads);
    printTable(metrics);
    // Named outcome metrics the JSON line cannot carry (they are 0 on a
    // passing run, or absent from some workloads' scenarios); a nonzero
    // leak, breach or failure already failed the run above.
    printTable({
        {"failed_device_share",
         devices ? static_cast<double>(failedDevices) / devices : 0.0,
         "share"},
        {"sim_sensitive_leaks", static_cast<double>(leaks), "count"},
        {"sim_defense_claim_breaches", static_cast<double>(breaches),
         "count"},
        {"sim_lock_p50_ms", meanOf(sims, &SimSample::lockMs), "sim_ms"},
        {"sim_unlock_p50_ms", meanOf(sims, &SimSample::unlockMs),
         "sim_ms"},
        {"sim_filebench_mbps", meanOf(sims, &SimSample::filebenchMbps),
         "sim_MB/s"},
    });
    if (!failure.empty()) {
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     failure.c_str());
        printResult(false, devices, failedDevices, {});
        return 1;
    }
    printResult(true, devices, failedDevices, metrics);
    return 0;
}

// ---- traced run ----------------------------------------------------------

/** Per-layer metric -> the end-to-end metric it should move. */
struct LayerMetric
{
    const char *name;
    const char *unit;
    const char *moves;
};

const LayerMetric LAYER_METRICS[] = {
    {"fleet.parse_ms", "ms", "job_p50_ms@attack_jobs, setup_s@population"},
    {"fleet.template_ms", "ms",
     "job_p50_ms@attack_jobs, setup_s@population"},
    {"fleet.device_ms_p50", "ms", "devices_per_s@all"},
    {"fleet.device_ms_p90", "ms", "devices_per_s@all"},
    {"fleet.engine_share", "share", "devices_per_s@population"},
    {"fleet.steals", "count", "devices_per_s@population"},
    {"hw.boot_ms", "ms", "job_p50_ms@interactive_day"},
    {"hw.fork_us", "us", "devices_per_s+peak_rss_mb@population"},
    {"hw.dirty_pages", "count", "devices_per_s+peak_rss_mb@population"},
    {"hw.l2_hit_ratio", "ratio",
     "sim_*@interactive_day, job_p50_ms@attack_jobs"},
    {"hw.l2_misses", "count",
     "sim_*@interactive_day, job_p50_ms@attack_jobs"},
    {"hw.bus_reads", "count",
     "sim_*@interactive_day, job_p50_ms@attack_jobs"},
    {"hw.bus_writes", "count",
     "sim_*@interactive_day, job_p50_ms@attack_jobs"},
    {"core.lock_ms", "ms", "devices_per_s+sim_*@interactive_day"},
    {"core.unlock_ms", "ms", "devices_per_s+sim_*@interactive_day"},
    {"core.touch_ms", "ms", "devices_per_s+sim_*@interactive_day"},
    {"core.faults", "count", "devices_per_s+sim_*@interactive_day"},
    {"core.bytes_encrypted", "bytes", "devices_per_s+sim_*@interactive_day"},
    {"core.bytes_decrypted", "bytes", "devices_per_s+sim_*@interactive_day"},
    {"core.audit_ms", "ms", "job_p50_ms@attack_jobs+interactive_day"},
    {"core.audits", "count", "job_p50_ms@attack_jobs+interactive_day"},
    {"os.filebench_ms", "ms", "devices_per_s+sim_*@interactive_day"},
    {"os.filebench_bytes", "bytes", "devices_per_s+sim_*@interactive_day"},
    {"crypto.aes_cbc_mbps", "MB/s", "core.lock_ms -> interactive_day"},
    {"attacks.cold_boot_ms", "ms", "job_p50_ms@attack_jobs"},
    {"attacks.os_reboot_ms", "ms", "job_p50_ms@attack_jobs"},
    {"attacks.2s_reset_ms", "ms", "job_p50_ms@attack_jobs"},
    {"attacks.dma_ms", "ms", "job_p50_ms@attack_jobs"},
    {"attacks.bus_monitor_ms", "ms", "job_p50_ms@attack_jobs"},
    {"attacks.code_injection_ms", "ms", "job_p50_ms@attack_jobs"},
    {"attacks.prime_probe_ms", "ms", "job_p50_ms@attack_jobs"},
    {"attacks.evict_reload_ms", "ms", "job_p50_ms@attack_jobs"},
    {"attacks.rowhammer_ms", "ms", "job_p50_ms@attack_jobs"},
    {"attacks.tz_side_channel_ms", "ms", "job_p50_ms@attack_jobs"},
    {"trace.overhead_share", "share", "(tracing cost, not a target)"},
    {"self.fleet_share", "share", "devices_per_s@population"},
    {"self.hw_share", "share", "devices_per_s@population"},
    {"self.core_share", "share", "job_p50_ms@interactive_day+attack_jobs"},
    {"self.os_share", "share", "job_p50_ms@interactive_day"},
    {"self.attacks_share", "share", "job_p50_ms@attack_jobs"},
    {"sim.lock_p50_ms", "sim_ms", "(model output, bit-stable)"},
    {"sim.unlock_p50_ms", "sim_ms", "(model output, bit-stable)"},
    {"sim.filebench_mbps", "sim_MB/s", "(model output, bit-stable)"},
    {"sim.sensitive_leaks", "count", "(must stay 0)"},
    {"fleet.failed_device_share", "share", "(must stay 0)"},
};

/** Host MB/s of AES-CBC on 4 KiB pages through the kernel crypto API. */
double
aesCbcMbps(Tracer &tracer, std::size_t dramBytes)
{
    core::Device device(hw::PlatformConfig::tegra3(dramBytes));
    device.sentry().registerCryptoProviders();
    const std::vector<std::uint8_t> key(16, 0x2b);
    auto cipher = device.kernel().cryptoApi().allocCipher("aes", key);
    std::vector<std::uint8_t> page(4 * KiB, 0x7e);
    constexpr std::size_t PAGES_PER_SPAN = 256; // 1 MiB
    double seconds = 0.0;
    for (int rep = 0; rep < 8; ++rep) {
        const auto t0 = Clock::now();
        Tracer::Scope span(tracer, "crypto.aes_cbc");
        for (std::size_t i = 0; i < PAGES_PER_SPAN; ++i)
            cipher->cbcEncrypt(crypto::Iv{}, page);
        seconds += since(t0);
    }
    return 8.0 * PAGES_PER_SPAN * page.size() / (1024.0 * 1024.0) / seconds;
}

/** Cold boot and fork probes (roots outside any job). */
void
hwProbes(Tracer &tracer, std::size_t dramBytes)
{
    const hw::PlatformConfig config = hw::PlatformConfig::tegra3(dramBytes);
    for (int rep = 0; rep < PROBE_REPS; ++rep) {
        Tracer::Scope span(tracer, "hw.boot");
        core::Device device(config);
    }
    core::Device warm(config);
    const auto snapshot = warm.snapshot();
    core::Device target(config);
    for (int rep = 0; rep < PROBE_REPS * 4; ++rep) {
        Tracer::Scope span(tracer, "hw.fork");
        target.forkFrom(*snapshot);
    }
}

int
tracedRun(const Args &args, unsigned threads)
{
    const Template templ = prepare(args.workload, args.seed, threads);
    Tracer tracer(true);
    std::string failure;
    std::uint64_t attempted = 0, failedDevices = 0;
    const auto fail = [&failure](const std::string &what) {
        if (failure.empty())
            failure = what;
    };

    std::vector<double> deviceMs, engineShares, steals, simLock, simUnlock,
        simFilebench, leaks, dirtyPages, filebenchBytes;
    std::map<std::string, std::vector<double>> perDevice;
    double stepSecondsTraced = 0.0, stepSecondsUntraced = 0.0;
    double jobDevices = 0.0, steppedDevices = 0.0, engineSeconds = 0.0;

    for (std::uint64_t j = 0; j < TRACE_JOBS; ++j) {
        tracer.setJob(j);
        const JobSpec job = makeJob(args.workload, args.seed, j);
        fleet::Scenario scenario;
        fleet::FleetOptions effective;
        {
            // Per-job fixed work, as the engine pays it: parse, then
            // resolve options, which builds a job-owned template.
            Tracer::Scope span(tracer, "fleet.job");
            {
                Tracer::Scope parse(tracer, "fleet.parse");
                scenario = fleet::parseScenario(job.text, job.name);
            }
            const bool ownTemplate =
                job.spawnMode == fleet::SpawnMode::Snapshot &&
                !job.sharedTemplate;
            Tracer::Scope resolve(tracer, ownTemplate ? "fleet.template"
                                                      : "fleet.resolve");
            effective = fleet::resolveFleetOptions(
                scenario, submitOptions(job, templ, threads));
        }

        // The real job, then its devices one by one on this thread: the
        // difference is what the engine itself costs.
        fleet::FleetReport report;
        {
            Tracer::Scope span(tracer, "fleet.run");
            report = fleet::runFleet(scenario, effective);
        }
        attempted += report.devices;
        failedDevices += report.failedDevices;
        fail(checkReport(report));
        const unsigned stepped = std::min(STEP_DEVICES, effective.devices);
        std::vector<fleet::DeviceResult> solo; // of the stepped devices
        double serialSeconds = 0.0;
        fleet::DevicePool pool;
        for (unsigned i = 0; i < effective.devices; ++i) {
            const auto t0 = Clock::now();
            fleet::DeviceResult result =
                fleet::runDevice(scenario, effective, i, &pool);
            const double s = since(t0);
            serialSeconds += s;
            deviceMs.push_back(s * 1e3);
            if (!result.ok)
                fail("runDevice " + std::to_string(i) + ": " + result.error);
            if (i < stepped)
                solo.push_back(std::move(result));
        }
        engineShares.push_back(
            1.0 - serialSeconds / (report.threads * report.hostSeconds));
        engineSeconds += std::max(
            0.0, report.threads * report.hostSeconds - serialSeconds);
        steals.push_back(static_cast<double>(report.steals));
        const double n = report.devices;
        for (const char *name :
             {"sim_l2_hits_total", "sim_l2_misses_total",
              "sim_bus_reads_total", "sim_bus_writes_total",
              "sim_faults_total", "sim_bytes_encrypted_on_lock",
              "sim_bytes_decrypted_on_demand", "sim_bytes_decrypted_eager",
              "sim_audits_total"})
            perDevice[name].push_back(metricValue(report, name) / n);
        const SimSample sim = simSample(report);
        simLock.push_back(sim.lockMs);
        simUnlock.push_back(sim.unlockMs);
        simFilebench.push_back(sim.filebenchMbps);
        leaks.push_back(metricValue(report, "sim_sensitive_leaks"));

        // Step the first devices through the layers, traced and not.
        // Each must end with the simulated results runDevice reported
        // for it, so the per-layer figures describe the runner's work.
        const auto checkStepped = [&](unsigned i, const SteppedDevice &d) {
            ++attempted;
            if (!d.ok) {
                ++failedDevices;
                fail("stepped device " + std::to_string(i) + ": " + d.error);
            }
            const std::string diff = simDifference(d, solo[i]);
            if (!diff.empty())
                fail("stepped device " + std::to_string(i) +
                     " differs from runDevice: " + diff);
        };
        {
            Stepper stepper(scenario, effective, tracer);
            const auto t0 = Clock::now();
            for (unsigned i = 0; i < stepped; ++i) {
                Tracer::Scope span(tracer, "stepper.device");
                const SteppedDevice d = stepper.run(i);
                checkStepped(i, d);
                dirtyPages.push_back(static_cast<double>(d.dirtyPages));
                filebenchBytes.push_back(
                    static_cast<double>(d.filebenchBytes));
            }
            stepSecondsTraced += since(t0);
        }
        {
            Tracer off(false);
            Stepper stepper(scenario, effective, off);
            const auto t0 = Clock::now();
            for (unsigned i = 0; i < stepped; ++i)
                checkStepped(i, stepper.run(i));
            stepSecondsUntraced += since(t0);
        }
        jobDevices += effective.devices;
        steppedDevices += stepped;
    }
    tracer.setJob(TRACE_JOBS);
    for (int rep = 0; rep < PROBE_REPS; ++rep) {
        const JobSpec job = makeJob(args.workload, args.seed, 0);
        fleet::Scenario scenario;
        {
            Tracer::Scope span(tracer, "fleet.parse");
            scenario = fleet::parseScenario(job.text, job.name);
        }
        fleet::FleetOptions options = jobOptions(job, threads);
        options.spawnMode = fleet::SpawnMode::Snapshot;
        Tracer::Scope span(tracer, "fleet.template");
        fleet::resolveFleetOptions(scenario, options);
    }
    const std::size_t dramBytes = makeJob(args.workload, args.seed, 0)
                                      .dramBytes;
    hwProbes(tracer, dramBytes);
    const double aesMbps = aesCbcMbps(tracer, dramBytes);

    // Self time per span name for one job: fixed per-job spans once, the
    // stepped devices scaled to the job's device count, and the engine's
    // own cost (worker thread-seconds not spent inside devices). The
    // stepper.device root's own self time (device-run and checker set-up,
    // result reads, span bookkeeping) is the "stepper" layer: reported,
    // but never counted towards a predicted split.
    std::map<std::string, double> selfByName = tracer.selfSeconds("fleet.job");
    for (const auto &[name, seconds] : tracer.selfSeconds("stepper.device"))
        selfByName[name] += seconds * jobDevices / steppedDevices;
    selfByName["fleet.engine"] += engineSeconds;
    std::map<std::string, double> self; // per layer
    double selfTotal = 0.0;
    for (auto &[name, seconds] : selfByName) {
        seconds /= TRACE_JOBS;
        self[name.substr(0, name.find('.'))] += seconds;
        selfTotal += seconds;
    }
    const auto share = [&](const std::map<std::string, double> &of,
                           const std::string &key) {
        const auto it = of.find(key);
        return it == of.end() || selfTotal <= 0 ? 0.0
                                                : it->second / selfTotal;
    };

    const std::map<std::string, SpanTotals> totals = tracer.totals();
    const auto meanMs = [&totals](const std::string &name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.meanMs();
    };
    const auto mean = [](const std::vector<double> &v) {
        double sum = 0.0;
        for (double x : v)
            sum += x;
        return v.empty() ? 0.0 : sum / v.size();
    };
    const auto perDev = [&](const char *name) {
        return mean(perDevice[name]);
    };
    const double hits = perDev("sim_l2_hits_total");
    const double misses = perDev("sim_l2_misses_total");

    std::map<std::string, double> values = {
        {"fleet.parse_ms", meanMs("fleet.parse")},
        {"fleet.template_ms", meanMs("fleet.template")},
        {"fleet.device_ms_p50", fleet::percentile(deviceMs, 50.0)},
        {"fleet.device_ms_p90", fleet::percentile(deviceMs, 90.0)},
        {"fleet.engine_share", median(engineShares)},
        {"fleet.steals", mean(steals)},
        {"hw.boot_ms", meanMs("hw.boot")},
        {"hw.fork_us", meanMs("hw.fork") * 1e3},
        {"hw.dirty_pages", mean(dirtyPages)},
        {"hw.l2_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0},
        {"hw.l2_misses", misses},
        {"hw.bus_reads", perDev("sim_bus_reads_total")},
        {"hw.bus_writes", perDev("sim_bus_writes_total")},
        {"core.lock_ms", meanMs("core.lock")},
        {"core.unlock_ms", meanMs("core.unlock")},
        {"core.touch_ms", meanMs("core.touch")},
        {"core.faults", perDev("sim_faults_total")},
        {"core.bytes_encrypted", perDev("sim_bytes_encrypted_on_lock")},
        {"core.bytes_decrypted", perDev("sim_bytes_decrypted_on_demand") +
                                     perDev("sim_bytes_decrypted_eager")},
        {"core.audit_ms", meanMs("core.audit")},
        {"core.audits", perDev("sim_audits_total")},
        {"os.filebench_ms", meanMs("os.filebench")},
        {"os.filebench_bytes", mean(filebenchBytes)},
        {"crypto.aes_cbc_mbps", aesMbps},
        {"trace.overhead_share",
         stepSecondsTraced > 0
             ? 1.0 - stepSecondsUntraced / stepSecondsTraced
             : 0.0},
        {"self.fleet_share", share(self, "fleet")},
        {"self.hw_share", share(self, "hw")},
        {"self.core_share", share(self, "core")},
        {"self.os_share", share(self, "os")},
        {"self.attacks_share", share(self, "attacks")},
        {"sim.lock_p50_ms", median(simLock)},
        {"sim.unlock_p50_ms", median(simUnlock)},
        {"sim.filebench_mbps", median(simFilebench)},
        {"sim.sensitive_leaks", mean(leaks)},
        {"fleet.failed_device_share",
         attempted ? static_cast<double>(failedDevices) / attempted : 0.0},
    };
    for (const char *verb :
         {"cold_boot", "os_reboot", "2s_reset", "dma", "bus_monitor",
          "code_injection", "prime_probe", "evict_reload", "rowhammer",
          "tz_side_channel"})
        values[std::string("attacks.") + verb + "_ms"] =
            meanMs(std::string("attacks.") + verb);

    std::vector<Metric> metrics;
    std::printf("%s traced run: %llu jobs, per-layer metrics "
                "(-> end-to-end metric@workload it should move):\n",
                workloadName(args.workload),
                static_cast<unsigned long long>(TRACE_JOBS));
    for (const LayerMetric &lm : LAYER_METRICS) {
        metrics.push_back({lm.name, values.at(lm.name), lm.unit});
        std::printf("  %-28s %16.6g %-8s -> %s\n", lm.name,
                    values.at(lm.name), lm.unit, lm.moves);
    }
    std::printf("self time per job by layer (crypto runs inside core and "
                "os spans; stepper is the benchmark's own per-device "
                "overhead):\n");
    for (const auto &[layer, seconds] : self)
        std::printf("  %-10s %10.3f ms  %5.1f%%\n", layer.c_str(),
                    seconds * 1e3, 100.0 * share(self, layer));

    // The split each workload was chosen for.
    double predicted = 0.0;
    const char *what = "";
    switch (args.workload) {
      case Workload::InteractiveDay:
        predicted = share(self, "core") + share(self, "crypto") +
                    share(self, "os");
        what = "core+crypto+os";
        break;
      case Workload::Population:
        predicted = share(selfByName, "fleet.engine") +
                    share(selfByName, "hw.fork");
        what = "fleet engine+hw.fork";
        break;
      case Workload::AttackJobs:
        predicted = share(self, "attacks") +
                    share(selfByName, "core.audit") +
                    share(selfByName, "core.dump_check") +
                    share(selfByName, "fleet.template");
        what = "attacks+core audits+fleet.template";
        break;
    }
    std::printf("predicted split: %s = %.1f%% of self time (%s)\n", what,
                100.0 * predicted,
                predicted > 0.5 ? "confirmed" : "NOT confirmed");

    std::filesystem::create_directories(args.traceDir);
    const std::string path = args.traceDir + "/" +
                             workloadName(args.workload) + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (tracer.writeChromeJson(path))
        std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                    path.c_str());
    else
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());

    if (!failure.empty()) {
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     failure.c_str());
        printResult(false, attempted, failedDevices, {});
        return 1;
    }
    printResult(true, attempted, failedDevices, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto processStart = Clock::now();
    const Args args = parseArgs(argc, argv);
    setQuiet(true);
    const unsigned threads = workerThreads();
    if (args.setupOnly) {
        try {
            prepare(args.workload, args.seed, threads);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: set-up: %s\n", e.what());
            return 1;
        }
        std::printf("ready\n");
        return 0;
    }
    printHost(threads);
    std::printf("workload %s seed %llu%s\n", workloadName(args.workload),
                static_cast<unsigned long long>(args.seed),
                args.seed == HELD_BACK_SEED ? " (held-back seed)" : "");
    try {
        return args.trace ? tracedRun(args, threads)
                          : timedRun(args, argv[0], threads, processStart);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        printResult(false, 1, 1, {});
        return 1;
    }
}
