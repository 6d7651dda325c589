/**
 * @file
 * SentryFleet scenario DSL.
 *
 * A scenario is a line-oriented script driving one simulated device
 * through a day in its life: spawning (possibly sensitive) apps,
 * locking and unlocking the screen, sleeping, suspending, running
 * filebench I/O through dm-crypt, and mounting the paper's memory
 * attacks against the locked device. The fleet engine (fleet.hh) runs
 * N independent devices through the same scenario concurrently.
 *
 * Grammar (one statement per line; '#' starts a comment):
 *
 *   devices N                      # default fleet size (1..1048576)
 *   platform tegra3|nexus4         # default platform
 *   jitter PCT                     # per-device size/duration spread
 *                                  # (0..90; default 0 = homogeneous)
 *   shards N                       # default shard count for the
 *                                  # worker/dispatcher engine (1..4096;
 *                                  # 0/absent = engine picks)
 *   audits every_step|transitions  # security-audit cadence: after every
 *                                  # step (default) or only after
 *                                  # lock/unlock/suspend/attack steps
 *   defense sentry|amnesia|memshield
 *                                  # defense backend the devices run
 *                                  # (default sentry; at most once)
 *   spawn NAME [sensitive] [background] [heap SIZE] [dma SIZE]
 *   lock
 *   unlock PIN
 *   sleep DURATION                 # idle simulated time (250ms, 2s, ...)
 *   suspend DURATION               # S3 suspend-to-RAM (locks first)
 *   wake                           # wake from suspend (still locked)
 *   touch NAME [SIZE]              # touch app memory through paging
 *   filebench SIZE [seqread|randread|randrw] [direct]
 *   attack VERB [frozen]           # one ATTACK_VERBS row: cold_boot,
 *                                  # os_reboot, 2s_reset, dma,
 *                                  # bus_monitor, code_injection,
 *                                  # prime_probe, evict_reload,
 *                                  # rowhammer, tz_side_channel;
 *                                  # frozen only on coldBootFamily rows
 *   zero_freed                     # run the freed-page zeroing kthread
 *
 * SIZE is an integer with an optional B/KiB/MiB/GiB suffix; DURATION is
 * a number with a mandatory us/ms/s suffix. All parse and validation
 * failures raise ScenarioError carrying the 1-based line number —
 * malformed input must never crash the engine.
 */

#ifndef SENTRY_FLEET_SCENARIO_HH
#define SENTRY_FLEET_SCENARIO_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/defense_backend.hh"
#include "os/filebench.hh"

namespace sentry::fleet
{

/** Upper bound on the fleet size a scenario or CLI may request. */
constexpr unsigned MAX_DEVICES = 1u << 20;

/** Upper bound on the shard count of the worker/dispatcher engine. */
constexpr unsigned MAX_SHARDS = 4096;

/** Upper bound on the worker threads of a fleet run or fuzz campaign. */
constexpr unsigned MAX_THREADS = 256;

/** Parse/validation failure; carries the offending 1-based line. */
class ScenarioError : public std::runtime_error
{
  public:
    ScenarioError(unsigned line, const std::string &what)
        : std::runtime_error("line " + std::to_string(line) + ": " + what),
          line_(line)
    {}

    /** @return 1-based line number of the offending statement. */
    unsigned line() const { return line_; }

  private:
    unsigned line_;
};

/** Simulated platform a scenario runs on. */
enum class FleetPlatform
{
    Tegra3, //!< PL310 cache locking: Sentry's background mode runs
    Nexus4, //!< no cache locking: iRAM placement, no background mode
};

/** DSL and command-line spelling of each FleetPlatform, in enum order. */
inline constexpr std::array<const char *, 2> PLATFORM_NAMES{"tegra3",
                                                            "nexus4"};

/** @return the platform spelled @p name, or nullopt for none. */
std::optional<FleetPlatform> parsePlatform(std::string_view name);

/** Statement opcodes. */
enum class Op
{
    Spawn,
    Lock,
    Unlock,
    Sleep,
    Suspend,
    Wake,
    Touch,
    Filebench,
    Attack,
    ZeroFreed,
};

/** Attack selector for `attack` statements. */
enum class AttackKind
{
    ColdBootReflash, //!< `cold_boot`: ~7 ms power tap + flashing tool
    OsReboot,        //!< `os_reboot`: warm reboot, no power loss
    TwoSecondReset,  //!< `2s_reset`: 2 s without power
    Dma,             //!< `dma`: live peripheral dump, non-destructive
    BusMonitor,      //!< `bus_monitor`: DDR probe capturing live traffic
    CodeInjection,   //!< `code_injection`: DMA write + firmware replace
    PrimeProbe,      //!< `prime_probe`: cross-core L2 Prime+Probe
    EvictReload,     //!< `evict_reload`: shared-line Evict+Reload
    Rowhammer,       //!< `rowhammer`: DRAM disturbance campaign
    TzSideChannel,   //!< `tz_side_channel`: secure-world mailbox probe
};

/**
 * One attack verb: everything the parser, the fuzzer and the device
 * runner know about it besides the runner's verb body. Adding a verb
 * takes one row here plus that body.
 */
struct AttackVerb
{
    AttackKind kind;
    const char *name; //!< DSL spelling (`attack <name>`)
    /** Threat the runner scores a breach against (core::DefenseBackend::
     * defeats). nullopt: a platform test every backend must pass, so a
     * breach fails the device and counts toward neither tally. */
    std::optional<core::Threat> threat;
    /** A power-loss reset of the cold-boot family: `frozen` applies,
     * the verb resets the device (only attack/sleep steps may follow),
     * and the fuzzer draws it only as a trial's final step. */
    bool coldBootFamily;
};

/** Every attack verb, one row per AttackKind, in enum order. */
inline constexpr std::array<AttackVerb, 10> ATTACK_VERBS{{
    {AttackKind::ColdBootReflash, "cold_boot", core::Threat::ColdBoot, true},
    {AttackKind::OsReboot, "os_reboot", core::Threat::ColdBoot, true},
    {AttackKind::TwoSecondReset, "2s_reset", core::Threat::ColdBoot, true},
    {AttackKind::Dma, "dma", core::Threat::Dma, false},
    {AttackKind::BusMonitor, "bus_monitor", core::Threat::BusMonitor, false},
    {AttackKind::CodeInjection, "code_injection", std::nullopt, false},
    {AttackKind::PrimeProbe, "prime_probe", core::Threat::PrimeProbe, false},
    {AttackKind::EvictReload, "evict_reload", core::Threat::EvictReload,
     false},
    {AttackKind::Rowhammer, "rowhammer", core::Threat::Rowhammer, false},
    {AttackKind::TzSideChannel, "tz_side_channel",
     core::Threat::TzSideChannel, false},
}};

static_assert(
    [] {
        for (std::size_t i = 0; i < ATTACK_VERBS.size(); ++i) {
            if (static_cast<std::size_t>(ATTACK_VERBS[i].kind) != i)
                return false;
        }
        return true;
    }(),
    "ATTACK_VERBS rows must follow AttackKind order");

/** @return @p kind's row of ATTACK_VERBS. */
constexpr const AttackVerb &
attackVerb(AttackKind kind)
{
    return ATTACK_VERBS[static_cast<std::size_t>(kind)];
}

/** @return the DSL spelling of @p kind. */
inline const char *
attackKindName(AttackKind kind)
{
    return attackVerb(kind).name;
}

/** One parsed statement. */
struct Step
{
    Op op = Op::Lock;
    unsigned line = 0;      //!< 1-based source line (for diagnostics)
    std::string name;       //!< spawn/touch target process
    std::string pin;        //!< unlock argument
    bool sensitive = false; //!< spawn: protect with Sentry
    bool background = false; //!< spawn: keep running while locked
    bool frozen = false;     //!< attack: -18 °C freezer variant
    bool directIo = false;   //!< filebench: bypass the buffer cache
    std::size_t bytes = 0;   //!< heap/touch/filebench size
    std::size_t dmaBytes = 0; //!< spawn: DMA-region VMA (0 = none)
    double seconds = 0.0;    //!< sleep/suspend duration
    os::FilebenchWorkload workload = os::FilebenchWorkload::RandRead;
    AttackKind attack = AttackKind::Dma;
};

/** A parsed scenario. */
struct Scenario
{
    std::string name;
    std::vector<Step> steps;
    /** `devices` directive value; 0 when the scenario didn't say. */
    unsigned defaultDevices = 0;
    /** `platform` directive; the engine default applies when unset. */
    std::optional<FleetPlatform> platform;
    /**
     * `jitter` directive: fraction (0..0.9) by which each device
     * deterministically scales its sizes and durations, so a fleet
     * models a heterogeneous population instead of N clones and the
     * latency percentiles spread out. 0 = all devices identical.
     */
    double jitter = 0.0;
    /** `shards` directive; 0 when the scenario didn't say (the engine
     * derives a device-count-only default — see planShards). */
    unsigned defaultShards = 0;
    /** `audits` directive: true = every_step, false = transitions;
     * the engine default applies when unset. */
    std::optional<bool> auditEveryStep;
    /** `defense` directive: which backend the devices run; the engine
     * default applies when unset. */
    std::optional<core::DefenseKind> defense;

    /** @return true when any spawn asks for background execution. */
    bool needsBackground() const;
};

/**
 * Parse scenario @p text.
 * @param name label recorded in reports
 * @throws ScenarioError on any malformed or out-of-range statement
 */
Scenario parseScenario(const std::string &text, const std::string &name);

/**
 * Load and parse a `.scn` file.
 * @throws std::runtime_error when the file cannot be read
 * @throws ScenarioError on parse failure
 */
Scenario loadScenarioFile(const std::string &path);

/** @return names of the built-in presets. */
std::vector<std::string> builtinScenarioNames();

/** @return true when @p name is a built-in preset. */
bool isBuiltinScenario(const std::string &name);

/**
 * @return a built-in preset (interactive-day, background-mail,
 *         attack-campaign, fleet-smoke, fleet-scale).
 * @throws std::runtime_error for unknown names
 */
Scenario builtinScenario(const std::string &name);

/**
 * Serialize @p step back to one DSL line (no trailing newline).
 * Sizes are emitted in raw bytes and durations in whole microseconds,
 * both of which parseScenario round-trips exactly.
 */
std::string formatStep(const Step &step);

/**
 * Serialize @p scenario (directives + steps) so parseScenario yields an
 * equivalent scenario. Used by the fuzzer to write reproducers.
 */
std::string formatScenario(const Scenario &scenario);

/**
 * Split one line of a line-oriented DSL (scenarios, fault schedules)
 * into whitespace-separated tokens, dropping a `#` comment.
 */
std::vector<std::string> tokenize(const std::string &line);

/**
 * Parse a byte count ("4MiB", "512KiB", "4096"): an integer with an
 * optional B/KiB/MiB/GiB suffix.
 * @throws std::invalid_argument when malformed, zero or past size_t
 */
std::size_t parseBytes(const std::string &token);

/**
 * Parse a step's size token: parseBytes() capped at 256 MiB.
 * @throws ScenarioError (with @p line) when malformed, zero or too big
 */
std::size_t parseSize(const std::string &token, unsigned line);

/**
 * Check a per-device DRAM size: 4 MiB..1 GiB, and a whole number of
 * 4 KiB pages.
 * @throws std::invalid_argument naming the rule @p bytes breaks
 */
void checkDramBytes(std::size_t bytes);

/**
 * Parse a duration token ("250ms", "2s", "100us").
 * @throws ScenarioError (with @p line) when malformed or non-positive
 */
double parseDuration(const std::string &token, unsigned line);

} // namespace sentry::fleet

#endif // SENTRY_FLEET_SCENARIO_HH
