#include "core/invariant_checker.hh"

#include <cstdio>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "core/dram_scanner.hh"
#include "hw/soc.hh"

namespace sentry::core
{

namespace
{

/** Score @p markers against a search: @p found(i) says whether the
 * attacker's view holds marker i. */
template <typename Found>
DumpLeaks
tallyLeaks(const std::vector<SecretMarker> &markers, Found found)
{
    DumpLeaks leaks;
    for (std::size_t i = 0; i < markers.size(); ++i) {
        const SecretMarker &marker = markers[i];
        const bool hit = found(i);
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
    return tallyLeaks(markers_, [&](std::size_t i) {
        return containsBytes(dram_dump, markers_[i].bytes) ||
               containsBytes(iram_dump, markers_[i].bytes);
    });
}

DumpLeaks
InvariantChecker::checkDumps(const hw::Soc &soc) const
{
    const DramScanner scanner(soc);
    return tallyLeaks(markers_, [&](std::size_t i) {
        return scanner.dramContains(markers_[i].bytes) ||
               scanner.iramContains(markers_[i].bytes);
    });
}

StreamMatcher
InvariantChecker::markerMatcher() const
{
    std::vector<std::vector<std::uint8_t>> needles;
    needles.reserve(markers_.size());
    for (const SecretMarker &marker : markers_)
        needles.push_back(marker.bytes);
    return StreamMatcher(std::move(needles));
}

DumpLeaks
InvariantChecker::checkDumps(const StreamMatcher &dram_image,
                             const StreamMatcher &iram_image) const
{
    if (dram_image.size() != markers_.size() ||
        iram_image.size() != markers_.size())
        panic("checkDumps: matcher does not hold the registered markers");
    return tallyLeaks(markers_, [&](std::size_t i) {
        return dram_image.found(i) || iram_image.found(i);
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
