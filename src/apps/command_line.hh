/**
 * @file
 * The command line sentry_fleet and sentry_fuzz share: both simulate
 * devices, so both take the flags that choose one (`--seed`,
 * `--platform`, `--defense`, `--dram`, `--snapshot`/`--cold-boot`,
 * `--trace-out`) plus `--host-info` and `--help`. CommandLine parses
 * those once and hands every other flag to the tool.
 */

#ifndef SENTRY_APPS_COMMAND_LINE_HH
#define SENTRY_APPS_COMMAND_LINE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "fleet/fleet.hh"

namespace sentry::apps
{

/** One tool's argument walk. */
class CommandLine
{
  public:
    /**
     * @param tool  program name, the prefix of every error message
     * @param usage the program's `--help` text
     */
    CommandLine(const char *tool, const char *usage, int argc,
                char **argv);

    /**
     * Walk the arguments. The shared flags set @p options (`--seed`,
     * `--dram`, `--trace-out`, whose path must be writable) and
     * @p pins, which fleet::applyPins later writes over a scenario's
     * or reproducer's directives; `--help` and `--host-info` print and
     * exit 0. Every other flag goes to @p own, which reads its value
     * through value() or count() and returns false for a flag it does
     * not know.
     */
    void parse(fleet::FleetOptions &options, fleet::Pins &pins,
               const std::function<bool(std::string_view flag)> &own);

    /** @return the current flag's value. */
    const char *value();

    /** @return the current flag's value, a whole unsigned number. */
    unsigned count();

    /** Print "<tool>: @p what" and the usage text, then exit 2. */
    [[noreturn]] void usageError(const std::string &what) const;

    /** Refuse @p flag's output @p path, before any device runs, when
     * it cannot be written (a file the check creates is removed). */
    void checkOutput(const char *flag, const std::string &path) const;

  private:
    /** @return the current flag's value: decimal, or hex with a 0x
     * prefix, no sign or trailing characters, at most @p max. */
    std::uint64_t number(std::uint64_t max);

    const char *tool_;
    const char *usage_;
    int argc_;
    char **argv_;
    int at_ = 0; //!< index of the argument being parsed
};

} // namespace sentry::apps

#endif // SENTRY_APPS_COMMAND_LINE_HH
