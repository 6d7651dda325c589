#include "fault/fault.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

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

std::uint64_t
parseU64(const std::string &token, unsigned line, const char *what)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0' || token.empty() ||
        token[0] == '-')
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
    for (unsigned i = 0; i < FAULT_KIND_COUNT; ++i) {
        const FaultKind candidate = static_cast<FaultKind>(i);
        if (name == faultKindName(candidate)) {
            kind = candidate;
            return true;
        }
    }
    return false;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::DramBitFlip:
        return "dram_bit_flip";
      case FaultKind::IramBitFlip:
        return "iram_bit_flip";
      case FaultKind::BusDuplicateWrite:
        return "bus_dup_write";
      case FaultKind::BusDelay:
        return "bus_delay";
      case FaultKind::LockdownGlitch:
        return "lockdown_glitch";
      case FaultKind::KcryptdStall:
        return "kcryptd_stall";
      case FaultKind::PowerGlitch:
        return "power_glitch";
      case FaultKind::DmaBurst:
        return "dma_burst";
    }
    return "?";
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
                if (spec.kind == FaultKind::PowerGlitch)
                    throw FaultParseError(
                        lineNo, "power_glitch is one-shot ('every' "
                                "not allowed)");
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
            } else if (key == "bytes") {
                const std::uint64_t n = parseU64(value, lineNo, "bytes");
                if (n == 0 || n > MAX_BURST_BYTES)
                    throw FaultParseError(
                        lineNo, "bytes out of range: '" + value +
                                    "' (max 16MiB)");
                spec.bytes = static_cast<std::size_t>(n);
            } else {
                throw FaultParseError(lineNo,
                                      "unknown fault parameter '" + key +
                                          "'");
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
    switch (spec.kind) {
      case FaultKind::DramBitFlip:
      case FaultKind::IramBitFlip:
      case FaultKind::BusDuplicateWrite:
      case FaultKind::LockdownGlitch:
        out << " count " << spec.count;
        break;
      case FaultKind::BusDelay:
        out << " cycles " << spec.cycles;
        break;
      case FaultKind::KcryptdStall:
      case FaultKind::PowerGlitch: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.9g", spec.seconds);
        out << " seconds " << buf;
        break;
      }
      case FaultKind::DmaBurst:
        out << " bytes " << spec.bytes;
        break;
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
