#include "core/invariant_checker.hh"

#include <cstdio>

#include "common/bytes.hh"
#include "core/dram_scanner.hh"
#include "hw/soc.hh"

namespace sentry::core
{

namespace
{

/** Score @p markers against a search: @p found(bytes) says whether the
 * attacker's view holds that marker. */
template <typename Found>
DumpLeaks
tallyLeaks(const std::vector<SecretMarker> &markers, Found found)
{
    DumpLeaks leaks;
    for (const SecretMarker &marker : markers) {
        const bool hit = found(marker.bytes);
        if (marker.sensitive) {
            ++leaks.sensitiveProbed;
            if (hit) {
                ++leaks.sensitiveLeaked;
                if (leaks.firstLeakedOwner.empty())
                    leaks.firstLeakedOwner = marker.owner;
            }
        } else if (hit) {
            ++leaks.nonSensitiveLeaks;
        }
    }
    return leaks;
}

} // namespace

void
InvariantChecker::addMarker(SecretMarker marker)
{
    markers_.push_back(std::move(marker));
}

CheckOutcome
InvariantChecker::checkLive()
{
    std::vector<std::vector<std::uint8_t>> plaintextMarkers;
    for (const SecretMarker &marker : markers_) {
        if (marker.sensitive)
            plaintextMarkers.push_back(marker.bytes);
    }
    SecurityAudit audit(kernel_, sentry_);
    const AuditReport report = audit.run(plaintextMarkers, &memo_);
    CheckOutcome outcome;
    if (!report.allPassed()) {
        outcome.ok = false;
        for (const AuditFinding &finding : report.findings) {
            if (!finding.passed) {
                outcome.detail = finding.check + " — " + finding.detail;
                break;
            }
        }
    }
    return outcome;
}

DumpLeaks
InvariantChecker::checkDumps(std::span<const std::uint8_t> dram_dump,
                             std::span<const std::uint8_t> iram_dump) const
{
    return tallyLeaks(markers_, [&](std::span<const std::uint8_t> needle) {
        return containsBytes(dram_dump, needle) ||
               containsBytes(iram_dump, needle);
    });
}

DumpLeaks
InvariantChecker::checkDumps(const hw::Soc &soc) const
{
    const DramScanner scanner(soc);
    return tallyLeaks(markers_, [&](std::span<const std::uint8_t> needle) {
        return scanner.dramContains(needle) || scanner.iramContains(needle);
    });
}

CheckOutcome
InvariantChecker::checkIramZeroed(const hw::Soc &soc) const
{
    const std::size_t i = DramScanner(soc).iramFirstNonZero();
    if (i == soc.iram().size())
        return CheckOutcome{};
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "iRAM byte 0x%zx non-zero after power event "
                  "(firmware must zero iRAM)",
                  i);
    return CheckOutcome{false, buf};
}

} // namespace sentry::core
