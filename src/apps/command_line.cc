#include "apps/command_line.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "host/kernels.hh"

namespace sentry::apps
{

CommandLine::CommandLine(const char *tool, const char *usage, int argc,
                         char **argv)
    : tool_(tool), usage_(usage), argc_(argc), argv_(argv)
{}

void
CommandLine::parse(fleet::FleetOptions &options, fleet::Pins &pins,
                   const std::function<bool(std::string_view flag)> &own)
{
    for (at_ = 1; at_ < argc_; ++at_) {
        const std::string_view flag = argv_[at_];
        if (flag == "--seed") {
            options.seed = number(UINT64_MAX);
        } else if (flag == "--platform") {
            const std::string name = value();
            pins.platform = fleet::parsePlatform(name);
            if (!pins.platform)
                usageError("unknown platform '" + name + "'");
        } else if (flag == "--defense") {
            const std::string name = value();
            pins.defense = core::parseDefenseKind(name);
            if (!pins.defense)
                usageError("unknown defense backend '" + name + "'");
        } else if (flag == "--dram") {
            try {
                options.dramBytes = fleet::parseBytes(value());
                fleet::checkDramBytes(options.dramBytes);
            } catch (const std::invalid_argument &e) {
                usageError(std::string("--dram: ") + e.what());
            }
        } else if (flag == "--snapshot") {
            pins.spawn = fleet::SpawnMode::Snapshot;
        } else if (flag == "--cold-boot") {
            pins.spawn = fleet::SpawnMode::ColdBoot;
        } else if (flag == "--trace-out") {
            options.traceOutPath = value();
        } else if (flag == "--host-info") {
            std::fputs(host::hostInfoString().c_str(), stdout);
            std::exit(0);
        } else if (flag == "--help" || flag == "-h") {
            std::fputs(usage_, stdout);
            std::exit(0);
        } else if (!own(flag)) {
            usageError("unknown option '" + std::string(flag) + "'");
        }
    }
    if (!options.traceOutPath.empty())
        checkOutput("--trace-out", options.traceOutPath);
}

const char *
CommandLine::value()
{
    if (at_ + 1 >= argc_)
        usageError(std::string(argv_[at_]) + " needs a value");
    return argv_[++at_];
}

unsigned
CommandLine::count()
{
    return static_cast<unsigned>(
        number(std::numeric_limits<unsigned>::max()));
}

std::uint64_t
CommandLine::number(std::uint64_t max)
{
    const std::string flag = argv_[at_];
    const std::string text = value();
    std::uint64_t n = 0;
    const fleet::NumberParse parsed = fleet::parseUnsigned(text, 0, max, n);
    if (parsed == fleet::NumberParse::Malformed)
        usageError(flag + ": malformed number '" + text + "'");
    if (parsed == fleet::NumberParse::OutOfRange)
        usageError(flag + ": '" + text + "' out of range (max " +
                   std::to_string(max) + ")");
    return n;
}

void
CommandLine::usageError(const std::string &what) const
{
    std::fprintf(stderr, "%s: %s\n", tool_, what.c_str());
    std::fputs(usage_, stdout);
    std::exit(2);
}

void
CommandLine::checkOutput(const char *flag, const std::string &path) const
{
    std::error_code ec;
    const bool existed = std::filesystem::exists(path, ec);
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (f == nullptr) {
        const int error = errno;
        usageError(std::string(flag) + ": cannot write '" + path +
                   "': " + std::strerror(error));
    }
    std::fclose(f);
    if (!existed)
        std::remove(path.c_str());
}

} // namespace sentry::apps
