#include "attacks/v2/attack.hh"

#include <cstdio>
#include <sstream>

#include "hw/soc.hh"

namespace sentry::attacks::v2
{

void
AttackOutcome::count(const std::string &key, std::uint64_t delta)
{
    for (auto &[name, value] : counters) {
        if (name == key) {
            value += delta;
            return;
        }
    }
    counters.emplace_back(key, delta);
}

std::uint64_t
AttackOutcome::counter(const std::string &key) const
{
    for (const auto &[name, value] : counters)
        if (name == key)
            return value;
    return 0;
}

std::string
AttackOutcome::digest() const
{
    std::ostringstream out;
    out << "attack=" << attack << ";target=" << target << ";seed=0x"
        << std::hex << seed << std::dec
        << ";recovered=" << (secretRecovered ? 1 : 0);
    for (const auto &[name, value] : counters)
        out << ';' << name << '=' << value;
    return out.str();
}

std::string
formatResult(const AttackOutcome &outcome)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%-24s %-32s %s", outcome.attack.c_str(),
                  outcome.target.c_str(), outcome.verdict());
    return buf;
}

AttackOutcome
Attack::run(hw::Soc &soc)
{
    // Reseed so back-to-back runs of one Attack object draw identical
    // random streams — replayability does not depend on construction
    // order.
    rng_.reseed(seed_);
    const probe::TraceMask mask = observeMask();
    if (mask != 0)
        soc.trace().subscribe(this, mask);
    AttackOutcome outcome;
    try {
        outcome = execute(soc);
    } catch (...) {
        if (mask != 0)
            soc.trace().unsubscribe(this);
        throw;
    }
    if (mask != 0)
        soc.trace().unsubscribe(this);
    return outcome;
}

AttackOutcome
Attack::makeOutcome(std::string target) const
{
    AttackOutcome outcome;
    outcome.attack = name_;
    outcome.target = std::move(target);
    outcome.seed = seed_;
    return outcome;
}

} // namespace sentry::attacks::v2
