/**
 * @file
 * Adversary suite v2: common infrastructure for the post-paper attack
 * models (ARMageddon cache attacks, Rowhammer, the TrustZone
 * shared-memory side channel).
 *
 * Every v2 attack derives from Attack and gets three things:
 *
 *   1. a private seeded Rng stream, reseeded at the top of every
 *      run(), so the same (attack, seed, device schedule) always
 *      replays to the identical outcome;
 *   2. a TraceEngine subscription scoped exactly to run() — the
 *      attack observes the trace points it declares via observeMask()
 *      and nothing else, and always detaches on exit;
 *   3. a structured AttackOutcome with ordered counters and a
 *      canonical digest() string, so fleet/fuzz reproducers can
 *      compare outcomes byte for byte.
 */

#ifndef SENTRY_ATTACKS_V2_ATTACK_HH
#define SENTRY_ATTACKS_V2_ATTACK_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/trace_engine.hh"

namespace sentry::hw
{
class Soc;
}

namespace sentry::attacks::v2
{

/**
 * Structured result of one attack run, for every attack: the paper's
 * (cold boot, DMA, bus monitor, code injection) and the v2 suite's.
 * Counters keep insertion order so digest() is canonical; notes are
 * human-facing and excluded from the digest.
 */
struct AttackOutcome
{
    std::string attack; //!< attack name (stable identifier)
    std::string target; //!< what was attacked (attack-defined)
    std::uint64_t seed = 0;
    bool secretRecovered = false;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::string> notes;

    /** Append (or add to) counter @p key. */
    void count(const std::string &key, std::uint64_t delta = 1);

    /** @return counter @p key's value (0 when absent). */
    std::uint64_t counter(const std::string &key) const;

    /** @return "UNSAFE"/"Safe" as in the paper's Table 3. */
    const char *verdict() const
    {
        return secretRecovered ? "UNSAFE" : "Safe";
    }

    /**
     * Canonical one-line digest:
     * `attack=<a>;target=<t>;seed=0x<s>;recovered=<0|1>;k=v;...`
     * Counters appear in insertion order; notes are excluded.
     */
    std::string digest() const;
};

/** Pretty-print an outcome line ("attack  target  verdict"). */
std::string formatResult(const AttackOutcome &outcome);

/** Base class of all v2 attacks. */
class Attack : public probe::Subscriber
{
  public:
    Attack(std::string name, std::uint64_t seed)
        : rng_(seed), name_(std::move(name)), seed_(seed)
    {}

    /** @return the attack's stable name. */
    const std::string &name() const { return name_; }

    /** @return the attack's seed. */
    std::uint64_t seed() const { return seed_; }

    /**
     * Run the attack against @p soc. Reseeds the RNG stream, attaches
     * this subscriber for observeMask() around execute(), and always
     * detaches afterwards. Calling run() twice on equivalent device
     * state yields byte-identical outcomes.
     */
    AttackOutcome run(hw::Soc &soc);

  protected:
    /** Trace kinds the attack wants delivered during execute(). */
    virtual probe::TraceMask observeMask() const { return 0; }

    /** The attack body; fill and return an outcome (use
     * makeOutcome() for the common header fields). */
    virtual AttackOutcome execute(hw::Soc &soc) = 0;

    /** @return an outcome pre-filled with name/seed and @p target. */
    AttackOutcome makeOutcome(std::string target) const;

    Rng rng_;

  private:
    std::string name_;
    std::uint64_t seed_;
};

} // namespace sentry::attacks::v2

#endif // SENTRY_ATTACKS_V2_ATTACK_HH
