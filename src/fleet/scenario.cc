#include "fleet/scenario.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

namespace sentry::fleet
{

namespace
{

/** Heap/touch/filebench sizes above this are almost certainly typos. */
constexpr std::size_t MAX_STEP_BYTES = 256 * MiB;

/** Sleep/suspend durations above this would stall a fleet run. */
constexpr double MAX_STEP_SECONDS = 3600.0;

bool
validProcessName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-')
            return false;
    }
    return true;
}

/** Split "250ms" into its numeric prefix and unit suffix. */
void
splitNumberSuffix(const std::string &token, std::string &number,
                  std::string &suffix)
{
    std::size_t i = 0;
    while (i < token.size() &&
           (std::isdigit(static_cast<unsigned char>(token[i])) ||
            token[i] == '.'))
        ++i;
    number = token.substr(0, i);
    suffix = token.substr(i);
}

/** Parse the count of a `devices` or `shards` directive: base-10
 * digits, no sign, 1..@p max; @p what names it in errors. */
unsigned
parseCount(const std::vector<std::string> &tokens, unsigned line,
           const std::string &what, unsigned max)
{
    if (tokens.size() != 2)
        throw ScenarioError(line, tokens[0] + " takes one count");
    const std::string &token = tokens[1];
    errno = 0;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(token.c_str(), &end, 10);
    // strtoull accepts a sign (negating the value); a count may not.
    if (!std::isdigit(static_cast<unsigned char>(token[0])) ||
        errno != 0 || *end != '\0')
        throw ScenarioError(line,
                            "malformed " + what + " count '" + token + "'");
    if (n < 1 || n > max)
        throw ScenarioError(line, what + " count " + token +
                                      " out of range (1.." +
                                      std::to_string(max) + ")");
    return static_cast<unsigned>(n);
}

} // namespace

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::string current;
    for (char c : line) {
        if (c == '#')
            break;
        if (std::isspace(static_cast<unsigned char>(c))) {
            if (!current.empty()) {
                tokens.push_back(current);
                current.clear();
            }
        } else {
            current.push_back(c);
        }
    }
    if (!current.empty())
        tokens.push_back(current);
    return tokens;
}

bool
Scenario::needsBackground() const
{
    for (const Step &step : steps) {
        if (step.op == Op::Spawn && step.background)
            return true;
    }
    return false;
}

std::optional<FleetPlatform>
parsePlatform(std::string_view name)
{
    const auto it = std::ranges::find(PLATFORM_NAMES, name);
    if (it == PLATFORM_NAMES.end())
        return std::nullopt;
    return static_cast<FleetPlatform>(it - PLATFORM_NAMES.begin());
}

std::size_t
parseBytes(const std::string &token)
{
    std::string number, suffix;
    splitNumberSuffix(token, number, suffix);
    if (number.empty() || number.find('.') != std::string::npos)
        throw std::invalid_argument("malformed size '" + token +
                                    "' (want e.g. 4MiB, 512KiB, 4096)");
    errno = 0;
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(number.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        throw std::invalid_argument("malformed size '" + token + "'");
    std::size_t unit = 1;
    if (suffix == "B" || suffix.empty())
        unit = 1;
    else if (suffix == "KiB")
        unit = KiB;
    else if (suffix == "MiB")
        unit = MiB;
    else if (suffix == "GiB")
        unit = GiB;
    else
        throw std::invalid_argument("unknown size suffix '" + suffix +
                                    "' in '" + token +
                                    "' (use B, KiB, MiB, or GiB)");
    if (value == 0)
        throw std::invalid_argument("size must be non-zero: '" + token +
                                    "'");
    const std::size_t bytes = static_cast<std::size_t>(value) * unit;
    if (bytes / unit != value)
        throw std::invalid_argument("size out of range: '" + token + "'");
    return bytes;
}

std::size_t
parseSize(const std::string &token, unsigned line)
{
    try {
        const std::size_t bytes = parseBytes(token);
        if (bytes <= MAX_STEP_BYTES)
            return bytes;
    } catch (const std::invalid_argument &e) {
        throw ScenarioError(line, e.what());
    }
    throw ScenarioError(line, "size out of range: '" + token +
                                  "' (max 256MiB)");
}

void
checkDramBytes(std::size_t bytes)
{
    if (bytes < 4 * MiB || bytes > 1 * GiB)
        throw std::invalid_argument(
            "per-device DRAM out of range (4MiB..1GiB)");
    if (bytes % PAGE_SIZE != 0)
        throw std::invalid_argument(
            "per-device DRAM must be a whole number of 4KiB pages");
}

double
parseDuration(const std::string &token, unsigned line)
{
    std::string number, suffix;
    splitNumberSuffix(token, number, suffix);
    if (number.empty())
        throw ScenarioError(line, "malformed duration '" + token +
                                      "' (want e.g. 250ms, 2s, 100us)");
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(number.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0')
        throw ScenarioError(line, "malformed duration '" + token + "'");
    double usPerUnit = 0.0;
    if (suffix == "us")
        usPerUnit = 1.0;
    else if (suffix == "ms")
        usPerUnit = 1e3;
    else if (suffix == "s")
        usPerUnit = 1e6;
    else
        throw ScenarioError(line, "duration '" + token +
                                      "' needs a us/ms/s suffix");
    // Normalize through microseconds so equal durations parse to the
    // same double regardless of spelling: 100ms, 100000us, and 0.1s
    // must drive bit-identical simulations (value * 1e-3 and
    // value * 1e-6 round differently by one ULP for some inputs).
    const double seconds = value * usPerUnit / 1e6;
    if (seconds <= 0.0)
        throw ScenarioError(line,
                            "duration must be positive: '" + token + "'");
    if (seconds > MAX_STEP_SECONDS)
        throw ScenarioError(line, "duration out of range: '" + token +
                                      "' (max 3600s)");
    return seconds;
}

Scenario
parseScenario(const std::string &text, const std::string &name)
{
    Scenario scenario;
    scenario.name = name;

    std::set<std::string> spawned;
    std::istringstream stream(text);
    std::string raw;
    unsigned lineNo = 0;
    while (std::getline(stream, raw)) {
        ++lineNo;
        if (!raw.empty() && raw.back() == '\r')
            raw.pop_back();
        const std::vector<std::string> tokens = tokenize(raw);
        if (tokens.empty())
            continue;
        const std::string &opcode = tokens[0];
        const std::size_t argc = tokens.size() - 1;

        Step step;
        step.line = lineNo;

        if (opcode == "devices") {
            scenario.defaultDevices =
                parseCount(tokens, lineNo, "device", MAX_DEVICES);
            continue;
        }
        if (opcode == "shards") {
            scenario.defaultShards =
                parseCount(tokens, lineNo, "shard", MAX_SHARDS);
            continue;
        }
        if (opcode == "audits") {
            if (argc != 1)
                throw ScenarioError(lineNo, "audits takes one mode");
            if (tokens[1] == "every_step")
                scenario.auditEveryStep = true;
            else if (tokens[1] == "transitions")
                scenario.auditEveryStep = false;
            else
                throw ScenarioError(lineNo,
                                    "unknown audit mode '" + tokens[1] +
                                        "' (every_step or transitions)");
            continue;
        }
        if (opcode == "defense") {
            if (argc != 1)
                throw ScenarioError(lineNo, "defense takes one backend");
            if (scenario.defense)
                throw ScenarioError(lineNo,
                                    "duplicate defense directive");
            scenario.defense = core::parseDefenseKind(tokens[1]);
            if (!scenario.defense)
                throw ScenarioError(
                    lineNo, "unknown defense backend '" + tokens[1] +
                                "' (sentry, amnesia, or memshield)");
            continue;
        }
        if (opcode == "jitter") {
            if (argc != 1)
                throw ScenarioError(lineNo, "jitter takes one percentage");
            errno = 0;
            char *end = nullptr;
            const double pct = std::strtod(tokens[1].c_str(), &end);
            if (errno != 0 || end == nullptr || *end != '\0')
                throw ScenarioError(lineNo, "malformed jitter '" +
                                                tokens[1] + "'");
            if (!(pct >= 0.0 && pct <= 90.0)) // NaN fails too
                throw ScenarioError(lineNo, "jitter " + tokens[1] +
                                                " out of range (0..90)");
            scenario.jitter = pct / 100.0;
            continue;
        }
        if (opcode == "platform") {
            if (argc != 1)
                throw ScenarioError(lineNo, "platform takes one name");
            scenario.platform = parsePlatform(tokens[1]);
            if (!scenario.platform)
                throw ScenarioError(lineNo,
                                    "unknown platform '" + tokens[1] +
                                        "' (" + PLATFORM_NAMES[0] +
                                        " or " + PLATFORM_NAMES[1] + ")");
            continue;
        }
        if (opcode == "spawn") {
            if (argc < 1)
                throw ScenarioError(lineNo, "spawn needs a process name");
            step.op = Op::Spawn;
            step.name = tokens[1];
            if (!validProcessName(step.name))
                throw ScenarioError(lineNo, "invalid process name '" +
                                                step.name + "'");
            if (spawned.contains(step.name))
                throw ScenarioError(lineNo, "process '" + step.name +
                                                "' spawned twice");
            step.bytes = 256 * KiB;
            for (std::size_t i = 2; i < tokens.size(); ++i) {
                if (tokens[i] == "sensitive") {
                    step.sensitive = true;
                } else if (tokens[i] == "background") {
                    step.background = true;
                } else if (tokens[i] == "heap") {
                    if (i + 1 >= tokens.size())
                        throw ScenarioError(lineNo, "heap needs a size");
                    step.bytes = parseSize(tokens[++i], lineNo);
                } else if (tokens[i] == "dma") {
                    if (i + 1 >= tokens.size())
                        throw ScenarioError(lineNo, "dma needs a size");
                    step.dmaBytes = parseSize(tokens[++i], lineNo);
                } else {
                    throw ScenarioError(lineNo, "unknown spawn flag '" +
                                                    tokens[i] + "'");
                }
            }
            if (step.background && !step.sensitive)
                throw ScenarioError(
                    lineNo, "background processes must be sensitive "
                            "(Sentry pages only protected processes)");
            spawned.insert(step.name);
        } else if (opcode == "lock") {
            if (argc != 0)
                throw ScenarioError(lineNo, "lock takes no arguments");
            step.op = Op::Lock;
        } else if (opcode == "unlock") {
            if (argc != 1)
                throw ScenarioError(lineNo, "unlock takes one PIN");
            step.op = Op::Unlock;
            step.pin = tokens[1];
        } else if (opcode == "sleep" || opcode == "suspend") {
            if (argc != 1)
                throw ScenarioError(lineNo,
                                    opcode + " takes one duration");
            step.op = opcode == "sleep" ? Op::Sleep : Op::Suspend;
            step.seconds = parseDuration(tokens[1], lineNo);
        } else if (opcode == "wake") {
            if (argc != 0)
                throw ScenarioError(lineNo, "wake takes no arguments");
            step.op = Op::Wake;
        } else if (opcode == "touch") {
            if (argc < 1 || argc > 2)
                throw ScenarioError(lineNo,
                                    "touch takes a name and optional size");
            step.op = Op::Touch;
            step.name = tokens[1];
            if (!spawned.contains(step.name))
                throw ScenarioError(lineNo, "touch of unknown process '" +
                                                step.name + "'");
            step.bytes =
                argc == 2 ? parseSize(tokens[2], lineNo) : 64 * KiB;
        } else if (opcode == "filebench") {
            if (argc < 1)
                throw ScenarioError(lineNo, "filebench needs an I/O size");
            step.op = Op::Filebench;
            step.bytes = parseSize(tokens[1], lineNo);
            for (std::size_t i = 2; i < tokens.size(); ++i) {
                if (tokens[i] == "seqread")
                    step.workload = os::FilebenchWorkload::SeqRead;
                else if (tokens[i] == "randread")
                    step.workload = os::FilebenchWorkload::RandRead;
                else if (tokens[i] == "randrw")
                    step.workload = os::FilebenchWorkload::RandRW;
                else if (tokens[i] == "direct")
                    step.directIo = true;
                else
                    throw ScenarioError(lineNo,
                                        "unknown filebench flag '" +
                                            tokens[i] + "'");
            }
        } else if (opcode == "attack") {
            if (argc < 1)
                throw ScenarioError(lineNo, "attack needs a kind");
            step.op = Op::Attack;
            const auto verb = std::ranges::find_if(
                ATTACK_VERBS,
                [&](const AttackVerb &row) { return tokens[1] == row.name; });
            if (verb == ATTACK_VERBS.end()) {
                std::string known;
                for (const AttackVerb &row : ATTACK_VERBS)
                    known += (known.empty() ? "" : ", ") +
                             std::string(row.name);
                throw ScenarioError(lineNo, "unknown attack '" + tokens[1] +
                                                "' (" + known + ")");
            }
            step.attack = verb->kind;
            for (std::size_t i = 2; i < tokens.size(); ++i) {
                if (tokens[i] == "frozen") {
                    if (!verb->coldBootFamily)
                        throw ScenarioError(
                            lineNo, "frozen only applies to cold-boot "
                                    "attacks");
                    step.frozen = true;
                } else {
                    throw ScenarioError(lineNo, "unknown attack flag '" +
                                                    tokens[i] + "'");
                }
            }
        } else if (opcode == "zero_freed") {
            if (argc != 0)
                throw ScenarioError(lineNo,
                                    "zero_freed takes no arguments");
            step.op = Op::ZeroFreed;
        } else {
            throw ScenarioError(lineNo, "unknown opcode '" + opcode + "'");
        }
        scenario.steps.push_back(step);
    }

    if (scenario.steps.empty())
        throw ScenarioError(lineNo == 0 ? 1 : lineNo,
                            "scenario has no statements");
    return scenario;
}

namespace
{

/** Emit @p seconds as a whole-microsecond duration token. */
std::string
formatDuration(double seconds)
{
    long long us = static_cast<long long>(seconds * 1e6 + 0.5);
    if (us < 1)
        us = 1; // parseDuration rejects non-positive durations
    return std::to_string(us) + "us";
}

const char *
workloadName(os::FilebenchWorkload workload)
{
    switch (workload) {
      case os::FilebenchWorkload::SeqRead:
        return "seqread";
      case os::FilebenchWorkload::RandRead:
        return "randread";
      case os::FilebenchWorkload::RandRW:
        return "randrw";
    }
    return "?";
}

} // namespace

std::string
formatStep(const Step &step)
{
    std::ostringstream out;
    switch (step.op) {
      case Op::Spawn:
        out << "spawn " << step.name;
        if (step.sensitive)
            out << " sensitive";
        if (step.background)
            out << " background";
        out << " heap " << step.bytes;
        if (step.dmaBytes != 0)
            out << " dma " << step.dmaBytes;
        break;
      case Op::Lock:
        out << "lock";
        break;
      case Op::Unlock:
        out << "unlock " << step.pin;
        break;
      case Op::Sleep:
        out << "sleep " << formatDuration(step.seconds);
        break;
      case Op::Suspend:
        out << "suspend " << formatDuration(step.seconds);
        break;
      case Op::Wake:
        out << "wake";
        break;
      case Op::Touch:
        out << "touch " << step.name << ' ' << step.bytes;
        break;
      case Op::Filebench:
        out << "filebench " << step.bytes << ' '
            << workloadName(step.workload);
        if (step.directIo)
            out << " direct";
        break;
      case Op::Attack:
        out << "attack " << attackKindName(step.attack);
        if (step.frozen)
            out << " frozen";
        break;
      case Op::ZeroFreed:
        out << "zero_freed";
        break;
    }
    return out.str();
}

std::string
formatScenario(const Scenario &scenario)
{
    std::ostringstream out;
    if (scenario.defaultDevices != 0)
        out << "devices " << scenario.defaultDevices << '\n';
    if (scenario.platform)
        out << "platform "
            << PLATFORM_NAMES[static_cast<std::size_t>(*scenario.platform)]
            << '\n';
    if (scenario.jitter > 0.0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.9g", scenario.jitter * 100.0);
        out << "jitter " << buf << '\n';
    }
    if (scenario.defaultShards != 0)
        out << "shards " << scenario.defaultShards << '\n';
    if (scenario.auditEveryStep) {
        out << "audits "
            << (*scenario.auditEveryStep ? "every_step" : "transitions")
            << '\n';
    }
    if (scenario.defense)
        out << "defense " << core::defenseKindName(*scenario.defense)
            << '\n';
    for (const Step &step : scenario.steps)
        out << formatStep(step) << '\n';
    return out.str();
}

Scenario
loadScenarioFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        throw std::runtime_error("cannot read scenario file: " + path);
    std::ostringstream text;
    text << file.rdbuf();
    std::string name = path;
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    const std::size_t dot = name.find_last_of('.');
    if (dot != std::string::npos)
        name = name.substr(0, dot);
    return parseScenario(text.str(), name);
}

namespace
{

/**
 * A day of interactive use: a sensitive mail client and a non-sensitive
 * game, several lock/unlock cycles, a mid-day DMA probe against the
 * locked device, filebench I/O through dm-crypt, and a suspend nap.
 */
const char INTERACTIVE_DAY[] = R"(
devices 8
jitter 30
spawn mail sensitive heap 512KiB dma 64KiB
spawn game heap 256KiB
touch mail 128KiB
lock
sleep 2s
unlock 0000
touch mail 64KiB
touch game 64KiB
lock
sleep 500ms
attack dma
unlock 0000
filebench 2MiB randread
lock
suspend 5s
wake
unlock 0000
touch mail 256KiB
lock
sleep 250ms
unlock 0000
zero_freed
)";

/**
 * The paper's introduction scenario: mail keeps syncing while the
 * device sits locked, paged through locked cache ways; a DMA attacker
 * probes the locked device and finds nothing.
 */
const char BACKGROUND_MAIL[] = R"(
devices 4
platform tegra3
spawn mail sensitive background heap 256KiB
touch mail 64KiB
lock
touch mail 32KiB
sleep 1s
touch mail 32KiB
attack dma
sleep 500ms
unlock 0000
touch mail 64KiB
)";

/**
 * The full Table 3 gauntlet against one locked device: live DMA dump,
 * then the three cold-boot variants (the last one frozen at -18 °C).
 */
const char ATTACK_CAMPAIGN[] = R"(
devices 8
spawn wallet sensitive heap 128KiB
spawn leaky heap 64KiB
touch wallet 32KiB
lock
sleep 100ms
attack dma
attack cold_boot
attack os_reboot
attack 2s_reset frozen
)";

/** Minimal per-device work for scaling benches and TSAN smoke runs. */
const char FLEET_SMOKE[] = R"(
devices 4
spawn mail sensitive heap 128KiB dma 16KiB
lock
sleep 250ms
attack dma
unlock 0000
touch mail 32KiB
lock
unlock 0000
)";

/**
 * Population-scale engine workload: the smallest per-device unit of
 * work that still pages real memory, sized so 10⁵ devices finish in
 * bench time. Audits run at transitions only (this scenario has none:
 * it measures the worker/dispatcher engine, not the audit scanner) and
 * the shard count is pinned so the per-shard merge tree — and with it
 * every `sim_shard_*` metric — is identical on every machine.
 */
const char FLEET_SCALE[] = R"(
devices 4096
shards 256
audits transitions
jitter 20
spawn app sensitive heap 16KiB
touch app 16KiB
sleep 5ms
touch app 8KiB
)";

struct Preset
{
    const char *name;
    const char *text;
};

const Preset PRESETS[] = {
    {"interactive-day", INTERACTIVE_DAY},
    {"background-mail", BACKGROUND_MAIL},
    {"attack-campaign", ATTACK_CAMPAIGN},
    {"fleet-smoke", FLEET_SMOKE},
    {"fleet-scale", FLEET_SCALE},
};

} // namespace

std::vector<std::string>
builtinScenarioNames()
{
    std::vector<std::string> names;
    for (const Preset &preset : PRESETS)
        names.emplace_back(preset.name);
    return names;
}

bool
isBuiltinScenario(const std::string &name)
{
    for (const Preset &preset : PRESETS) {
        if (name == preset.name)
            return true;
    }
    return false;
}

Scenario
builtinScenario(const std::string &name)
{
    for (const Preset &preset : PRESETS) {
        if (name == preset.name)
            return parseScenario(preset.text, preset.name);
    }
    throw std::runtime_error("unknown built-in scenario: " + name);
}

} // namespace sentry::fleet
