#include "core/invariant_checker.hh"

#include <cstdio>

#include "common/bytes.hh"
#include "common/logging.hh"
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

/**
 * @return true if @p needle is in @p cells. The search skips the pages
 * unchanged since @p absent_at, the generation at which the needle was
 * last found absent (0 searches everything), and updates it.
 */
bool
dramHolds(const hw::CowBytes &cells, std::span<const std::uint8_t> needle,
          std::uint64_t &absent_at)
{
    const bool found = cells.contains(needle, absent_at);
    absent_at = found ? 0 : cells.generation();
    return found;
}

/** @return the present pages of sensitive processes that are neither
 * ciphertext in DRAM nor cleartext pinned on the SoC. */
std::size_t
decryptedDramPages(const os::Kernel &kernel)
{
    std::size_t violations = 0;
    for (const auto &process : kernel.processes()) {
        if (!process->sensitive())
            continue;
        for (const os::Vma &vma : process->addressSpace().vmas()) {
            if (vma.share == os::SharePolicy::SharedWithNonSensitive)
                continue;
            for (std::size_t page = 0; page < vma.pages(); ++page) {
                const os::Pte *pte =
                    process->pageTable().find(vma.base + page * PAGE_SIZE);
                if (pte != nullptr && pte->present && !pte->encrypted &&
                    !pte->onSoc)
                    ++violations;
            }
        }
    }
    return violations;
}

} // namespace

void
InvariantChecker::addMarker(SecretMarker marker)
{
    markers_.push_back(std::move(marker));
    markerAbsentAt_.push_back(0);
}

CheckOutcome
InvariantChecker::checkLive()
{
    // Make DRAM reflect reality before scanning: push dirty lines out
    // of the unlocked ways (locked ways are exempt by design).
    kernel_.soc().l2().cleanAllMasked();

    // Every check runs, so each needle's entry advances in every audit;
    // the first failure is the outcome.
    CheckOutcome outcome;
    const auto fail = [&outcome](const char *check,
                                 const std::string &detail) {
        if (outcome.ok)
            outcome = {false, std::string(check) + " — " + detail};
    };
    const hw::CowBytes &dram = kernel_.soc().dram().cells();
    const os::PowerState state = kernel_.powerState();
    const bool locked = state == os::PowerState::Locked ||
                        state == os::PowerState::Suspended ||
                        state == os::PowerState::DeepLock;

    if (!sentry_.keysDestroyed()) {
        const RootKey key = sentry_.keys().volatileKey();
        if (key != key_) {
            key_ = key;
            keyAbsentAt_ = 0;
        }
        const bool inDram = dramHolds(dram, key, keyAbsentAt_);
        const bool onSoc = kernel_.soc().iram().cells().contains(key);
        if (inDram)
            fail("key-residency", "volatile key found in DRAM");
        else if (!onSoc)
            fail("key-residency", "volatile key missing from on-SoC storage");
    }

    if (locked) {
        if (const std::size_t pages = decryptedDramPages(kernel_))
            fail("page-states", std::to_string(pages) +
                                    " decrypted DRAM-resident page(s) "
                                    "while locked");
    }

    const hw::L2Cache &l2 = kernel_.soc().l2();
    if ((l2.lockdownReg() & ~l2.flushWayMask()) != 0)
        fail("flush-mask", "locked ways not covered by the flush mask: a "
                           "kernel cache flush would leak them");

    if (locked) {
        std::size_t hits = 0;
        for (std::size_t i = 0; i < markers_.size(); ++i) {
            if (markers_[i].sensitive &&
                dramHolds(dram, markers_[i].bytes, markerAbsentAt_[i]))
                ++hits;
        }
        if (hits != 0)
            fail("plaintext-markers",
                 std::to_string(hits) + " marker(s) in DRAM");
    }

    if (locked && kernel_.freedPendingBytes() != 0)
        fail("freed-pages", std::to_string(kernel_.freedPendingBytes()) +
                                " unscrubbed freed bytes while locked");
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
    const hw::CowBytes &dram = soc.dram().cells();
    const hw::CowBytes &iram = soc.iram().cells();
    return tallyLeaks(markers_, [&](std::size_t i) {
        return dram.contains(markers_[i].bytes) ||
               iram.contains(markers_[i].bytes);
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
    const std::size_t i = soc.iram().cells().firstNonZero();
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
