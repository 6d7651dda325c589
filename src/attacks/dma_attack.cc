#include "attacks/dma_attack.hh"

#include <algorithm>

namespace sentry::attacks
{

hw::DmaStatus
DmaAttack::sweep(hw::Soc &soc, PhysAddr addr, std::size_t len,
                 const BurstFn &visit)
{
    std::vector<std::uint8_t> burst(std::min(BURST, len));
    hw::DmaStatus worst = hw::DmaStatus::Ok;
    for (std::size_t off = 0; off < len; off += BURST) {
        const std::span<std::uint8_t> chunk(burst.data(),
                                            std::min(BURST, len - off));
        const hw::DmaStatus status =
            soc.dma().readMemory(addr + off, chunk.data(), chunk.size());
        if (status != hw::DmaStatus::Ok) {
            std::fill(chunk.begin(), chunk.end(), 0);
            if (worst == hw::DmaStatus::Ok)
                worst = status;
        }
        visit(chunk);
    }
    return worst;
}

hw::DmaStatus
DmaAttack::grepMemory(hw::Soc &soc, StreamMatcher &dram, StreamMatcher &iram)
{
    sweep(soc, DRAM_BASE, soc.dram().size(),
          [&](std::span<const std::uint8_t> burst) { dram.feed(burst); });
    return sweep(soc, IRAM_BASE, soc.iram().size(),
                 [&](std::span<const std::uint8_t> burst) {
                     iram.feed(burst);
                 });
}

std::vector<std::uint8_t>
DmaAttack::dumpRange(hw::Soc &soc, PhysAddr addr, std::size_t len,
                     hw::DmaStatus *status_out)
{
    std::vector<std::uint8_t> dump;
    dump.reserve(len);
    const hw::DmaStatus worst =
        sweep(soc, addr, len, [&](std::span<const std::uint8_t> burst) {
            dump.insert(dump.end(), burst.begin(), burst.end());
        });
    if (status_out != nullptr)
        *status_out = worst;
    return dump;
}

v2::AttackOutcome
DmaAttack::run(hw::Soc &soc, std::span<const std::uint8_t> secret,
               const std::string &target)
{
    v2::AttackOutcome result;
    result.attack = "dma";
    result.target = target;

    const std::vector<std::vector<std::uint8_t>> needle{
        {secret.begin(), secret.end()}};
    StreamMatcher dram(needle);
    StreamMatcher iram(needle);
    const hw::DmaStatus iramStatus = grepMemory(soc, dram, iram);
    if (dram.found(0)) {
        result.secretRecovered = true;
        result.notes.push_back("secret found in DRAM via DMA");
    }
    if (iramStatus == hw::DmaStatus::DeniedByTrustZone) {
        result.notes.push_back("iRAM DMA denied by TrustZone");
    } else if (iram.found(0)) {
        result.secretRecovered = true;
        result.notes.push_back("secret found in iRAM via DMA");
    }

    return result;
}

} // namespace sentry::attacks
