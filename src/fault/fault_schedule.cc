#include "fault/fault.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string_view>

#include "common/types.hh"
#include "fleet/scenario.hh"

namespace sentry::fault
{

namespace
{

/** Bit flips / duplicates / lockdown bits above this are typos. */
constexpr unsigned MAX_COUNT = 1024;

/** Bus stalls above this would dwarf any real glitch. */
constexpr std::uint64_t MAX_CYCLES = 100'000'000;

/** Stall / power-off durations above this would stall a fuzz run. */
constexpr double MAX_SECONDS = 3600.0;

/** DMA bursts above this are typos (and would dominate runtime). */
constexpr std::size_t MAX_BURST_BYTES = 16 * MiB;

/** One fault kind's DSL spelling, the one magnitude key it takes, and
 * whether it is one-shot (refuses `every`). */
struct FaultKindRow
{
    const char *name;
    std::string_view magnitude;
    bool oneShot;
};

/** Every FaultKind, in enumerator order. */
constexpr FaultKindRow FAULT_KINDS[] = {
    {"dram_bit_flip", "count", false},
    {"iram_bit_flip", "count", false},
    {"bus_dup_write", "count", false},
    {"bus_delay", "cycles", false},
    {"lockdown_glitch", "count", false},
    {"kcryptd_stall", "seconds", false},
    {"power_glitch", "seconds", true},
    {"dma_burst", "bytes", false},
};
static_assert(std::size(FAULT_KINDS) == FAULT_KIND_COUNT);

const FaultKindRow &
rowOf(FaultKind kind)
{
    return FAULT_KINDS[static_cast<unsigned>(kind)];
}

std::uint64_t
parseU64(const std::string &token, unsigned line, const char *what)
{
    std::uint64_t value = 0;
    if (fleet::parseUnsigned(token, 10, UINT64_MAX, value) !=
        fleet::NumberParse::Ok)
        throw FaultParseError(line, std::string("malformed ") + what +
                                        " '" + token + "'");
    return value;
}

double
parseSeconds(const std::string &token, unsigned line)
{
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0' || token.empty())
        throw FaultParseError(line,
                              "malformed seconds '" + token + "'");
    if (!(value > 0.0 && value <= MAX_SECONDS)) // NaN fails too
        throw FaultParseError(line, "seconds out of range: '" + token +
                                        "' (0 < s <= 3600)");
    return value;
}

bool
kindFromName(const std::string &name, FaultKind &kind)
{
    const auto row =
        std::ranges::find(FAULT_KINDS, name, &FaultKindRow::name);
    if (row == std::end(FAULT_KINDS))
        return false;
    kind = static_cast<FaultKind>(row - std::begin(FAULT_KINDS));
    return true;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    return rowOf(kind).name;
}

FaultSchedule
parseFaultSchedule(const std::string &text)
{
    FaultSchedule schedule;

    std::istringstream stream(text);
    std::string raw;
    unsigned lineNo = 0;
    while (std::getline(stream, raw)) {
        ++lineNo;
        if (!raw.empty() && raw.back() == '\r')
            raw.pop_back();
        const std::vector<std::string> tokens = fleet::tokenize(raw);
        if (tokens.empty())
            continue;
        if (tokens[0] != "fault")
            throw FaultParseError(lineNo, "unknown opcode '" + tokens[0] +
                                              "' (want 'fault')");
        if (tokens.size() < 4)
            throw FaultParseError(
                lineNo, "fault needs a kind and an 'after N' trigger");

        FaultSpec spec;
        spec.line = lineNo;
        if (!kindFromName(tokens[1], spec.kind))
            throw FaultParseError(lineNo,
                                  "unknown fault kind '" + tokens[1] + "'");
        if (tokens[2] != "after")
            throw FaultParseError(lineNo, "expected 'after', got '" +
                                              tokens[2] + "'");
        spec.after = parseU64(tokens[3], lineNo, "trigger count");
        if (spec.after == 0)
            throw FaultParseError(lineNo,
                                  "'after' counts from 1, got 0");

        const FaultKindRow &row = rowOf(spec.kind);
        for (std::size_t i = 4; i < tokens.size(); i += 2) {
            const std::string &key = tokens[i];
            if (i + 1 >= tokens.size())
                throw FaultParseError(lineNo,
                                      "'" + key + "' needs a value");
            const std::string &value = tokens[i + 1];
            if (key == "every") {
                spec.every = parseU64(value, lineNo, "period");
                if (spec.every == 0)
                    throw FaultParseError(
                        lineNo, "'every' must be >= 1 (omit it for "
                                "a one-shot fault)");
                if (row.oneShot)
                    throw FaultParseError(lineNo,
                                          std::string(row.name) +
                                              " is one-shot ('every' "
                                              "not allowed)");
            } else if (key != row.magnitude) {
                throw FaultParseError(
                    lineNo, std::string(row.name) + " takes no '" + key +
                                "' parameter (its magnitude is '" +
                                std::string(row.magnitude) + "')");
            } else if (key == "count") {
                const std::uint64_t n = parseU64(value, lineNo, "count");
                if (n == 0 || n > MAX_COUNT)
                    throw FaultParseError(
                        lineNo, "count out of range: '" + value +
                                    "' (1.." + std::to_string(MAX_COUNT) +
                                    ")");
                spec.count = static_cast<unsigned>(n);
            } else if (key == "cycles") {
                spec.cycles = parseU64(value, lineNo, "cycle count");
                if (spec.cycles == 0 || spec.cycles > MAX_CYCLES)
                    throw FaultParseError(
                        lineNo, "cycles out of range: '" + value + "'");
            } else if (key == "seconds") {
                spec.seconds = parseSeconds(value, lineNo);
            } else { // bytes
                const std::uint64_t n = parseU64(value, lineNo, "bytes");
                if (n == 0 || n > MAX_BURST_BYTES)
                    throw FaultParseError(
                        lineNo, "bytes out of range: '" + value +
                                    "' (max 16MiB)");
                spec.bytes = static_cast<std::size_t>(n);
            }
        }
        schedule.faults.push_back(spec);
    }
    return schedule;
}

std::string
formatFaultSpec(const FaultSpec &spec)
{
    std::ostringstream out;
    out << "fault " << faultKindName(spec.kind) << " after " << spec.after;
    if (spec.every != 0)
        out << " every " << spec.every;
    const std::string_view magnitude = rowOf(spec.kind).magnitude;
    out << ' ' << magnitude << ' ';
    if (magnitude == "count") {
        out << spec.count;
    } else if (magnitude == "cycles") {
        out << spec.cycles;
    } else if (magnitude == "seconds") {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.9g", spec.seconds);
        out << buf;
    } else {
        out << spec.bytes;
    }
    return out.str();
}

std::string
formatFaultSchedule(const FaultSchedule &schedule)
{
    std::ostringstream out;
    for (const FaultSpec &spec : schedule.faults)
        out << formatFaultSpec(spec) << '\n';
    return out.str();
}

} // namespace sentry::fault
