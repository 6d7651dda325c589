#include "attacks/bus_monitor_attack.hh"

#include <array>

#include "common/bytes.hh"
#include "common/types.hh"

namespace sentry::attacks
{

std::size_t
SideChannelResult::recoveredBytes() const
{
    std::size_t count = 0;
    for (const auto &byte : keyByteHighBits)
        count += byte.has_value() ? 1 : 0;
    return count;
}

BusMonitorAttack::BusMonitorAttack(hw::Soc &soc)
    : soc_(soc), monitor_(/*capture_payloads=*/true)
{
    monitor_.attach(soc_.trace());
}

BusMonitorAttack::BusMonitorAttack(hw::Soc &soc, StreamMatcher &matcher)
    : soc_(soc), monitor_(/*capture_payloads=*/false, &matcher)
{
    monitor_.attach(soc_.trace());
}

BusMonitorAttack::~BusMonitorAttack()
{
    monitor_.detach();
}

void
BusMonitorAttack::startCapture()
{
    monitor_.clear();
}

v2::AttackOutcome
BusMonitorAttack::analyzeForSecret(std::span<const std::uint8_t> secret,
                                   const std::string &target) const
{
    v2::AttackOutcome result;
    result.attack = "bus-monitor";
    result.target = target;

    StreamMatcher matcher(std::vector<std::vector<std::uint8_t>>{
        {secret.begin(), secret.end()}});
    for (const hw::CapturedTransaction &txn : monitor_.trace())
        matcher.feed(txn.data);
    if (matcher.found(0)) {
        result.secretRecovered = true;
        result.notes.push_back("secret bytes crossed the memory bus");
    }
    return result;
}

SideChannelResult
BusMonitorAttack::recoverAesKeyBits(crypto::SimAesEngine &engine,
                                    unsigned num_blocks, Rng &rng)
{
    // Attack geometry: 4 tables of 256 4-byte entries; a 32-byte cache
    // line covers 8 consecutive entries, so an observed line pins the
    // top 5 bits of the index. In round one the index of key byte i in
    // table (i % 4) is plaintext[i] ^ key[i].
    constexpr unsigned ENTRIES_PER_LINE =
        CACHE_LINE_SIZE / 4; // = 8 entries
    constexpr unsigned LINES_PER_TABLE = 256 / ENTRIES_PER_LINE;

    const PhysAddr teBase =
        engine.stateBase() +
        engine.layout().find("Enc round tables (Te0-3)").offset;

    // Candidate sets: all 256 values per key byte to start with.
    std::array<std::vector<bool>, 16> alive;
    for (auto &v : alive)
        v.assign(256, true);

    bool sawTableTraffic = false;

    for (unsigned block = 0; block < num_blocks; ++block) {
        std::uint8_t plaintext[16];
        for (auto &b : plaintext)
            b = static_cast<std::uint8_t>(rng.below(256));

        // Cache pressure: a busy system keeps evicting the tables.
        soc_.l2().flushAllMasked();
        startCapture();

        std::uint8_t ciphertext[16];
        engine.encryptBlock(plaintext, ciphertext);

        // Which lines of each table crossed the bus?
        std::array<std::array<bool, LINES_PER_TABLE>, 4> seen{};
        for (const auto &txn : monitor_.trace()) {
            if (txn.isWrite || txn.addr < teBase ||
                txn.addr >= teBase + 4 * 256 * 4) {
                continue;
            }
            sawTableTraffic = true;
            // A line fill covers one whole line; mark every table line
            // the transaction overlaps.
            const PhysAddr rel = txn.addr - teBase;
            const unsigned table = static_cast<unsigned>(rel / 1024);
            const unsigned line =
                static_cast<unsigned>((rel % 1024) / CACHE_LINE_SIZE);
            seen[table][line] = true;
        }
        if (!sawTableTraffic)
            continue;

        // Eliminate key candidates whose round-1 line was not fetched.
        for (unsigned i = 0; i < 16; ++i) {
            const unsigned table = i % 4;
            for (unsigned k = 0; k < 256; ++k) {
                if (!alive[i][k])
                    continue;
                const unsigned line =
                    static_cast<unsigned>(plaintext[i] ^ k) /
                    ENTRIES_PER_LINE;
                if (!seen[table][line])
                    alive[i][k] = false;
            }
        }
    }

    SideChannelResult result;
    result.accessPatternsVisible = sawTableTraffic;
    result.keyByteHighBits.assign(16, std::nullopt);
    if (!sawTableTraffic)
        return result;

    for (unsigned i = 0; i < 16; ++i) {
        // Success when every surviving candidate shares one 8-entry
        // line class (the low 3 bits stay unresolvable).
        int cls = -1;
        bool ambiguous = false;
        unsigned survivors = 0;
        for (unsigned k = 0; k < 256; ++k) {
            if (!alive[i][k])
                continue;
            ++survivors;
            const int c = static_cast<int>(k & 0xF8);
            if (cls < 0)
                cls = c;
            else if (cls != c)
                ambiguous = true;
        }
        if (survivors > 0 && !ambiguous)
            result.keyByteHighBits[i] = static_cast<std::uint8_t>(cls);
    }
    return result;
}

} // namespace sentry::attacks
