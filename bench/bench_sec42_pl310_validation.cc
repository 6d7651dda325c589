/**
 * @file
 * Section 4.2 — validating the PL310's write-back behaviour, exactly
 * as the paper did on the Tegra 3 board:
 *
 *   1. choose an 8-byte random pattern that never appears in DRAM;
 *   2. write it at a physical address that maps into a locked way;
 *   3. use DMA reads (to the UART debug loopback port, the one device
 *      that lets software observe DMA data) to read the DRAM directly,
 *      bypassing the cache: the pattern must NOT appear;
 *   4. show that flushing the entire cache (the stock operation) DOES
 *      unlock the ways and leak the pattern — and that the masked
 *      flush (the OS change) does not.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/bytes.hh"
#include "core/locked_way_manager.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"

using namespace sentry;

int
main()
{
    setQuiet(true);
    bench::Session session("sec42_pl310_validation");
    bench::banner("Section 4.2: PL310 locked-way write-back validation",
                  "the UART-loopback DMA experiment");

    hw::Soc soc(hw::PlatformConfig::tegra3(32 * MiB));
    core::LockedWayManager ways(soc, DRAM_BASE + 16 * MiB);

    // Step 1: a pattern that does not appear in DRAM.
    Rng rng(0xdeba5e);
    std::vector<std::uint8_t> pattern(8);
    do {
        for (auto &b : pattern)
            b = static_cast<std::uint8_t>(rng.below(256));
    } while (containsBytes(soc.dramRaw(), pattern));
    std::printf("pattern: %s\n", toHex(pattern).c_str());

    // Step 2: write it into a locked way.
    const auto region = ways.lockWay();
    soc.memory().write(region->base, pattern.data(), pattern.size());
    std::printf("written at 0x%llx (locked way 0)\n",
                static_cast<unsigned long long>(region->base));

    // Step 3: DMA the backing DRAM to the UART debug port and read the
    // serial loopback.
    soc.dma().transfer(region->base, hw::UART_DEBUG_PORT, 64);
    const auto observed = soc.uart().drainLoopback();
    const bool leaked = containsBytes(observed, pattern);
    std::printf("DMA read of backing DRAM sees pattern?    %s\n",
                leaked ? "YES (hardware would be unusable!)" : "no");
    std::printf("pattern anywhere in DRAM?                 %s\n",
                containsBytes(soc.dramRaw(), pattern) ? "YES" : "no");

    // Each flush's own L2 writebacks and bus writes, so the reference
    // pins how much each one pushes to DRAM, not only whether it leaks.
    struct FlushTraffic
    {
        std::uint64_t writebacks = 0;
        std::uint64_t busWrites = 0;
    };
    const auto measure = [&soc](auto &&flush) {
        const std::uint64_t wb = soc.l2().stats().writebacks;
        const std::uint64_t writes = soc.bus().stats().writes;
        flush();
        return FlushTraffic{soc.l2().stats().writebacks - wb,
                            soc.bus().stats().writes - writes};
    };

    // Step 4a: masked flush (the patched kernel): still safe.
    const FlushTraffic masked = measure([&] { soc.l2().flushAllMasked(); });
    const bool afterMasked = containsBytes(soc.dramRaw(), pattern);
    std::printf("after masked flush, pattern in DRAM?      %s  "
                "(%llu writebacks)\n",
                afterMasked ? "YES" : "no",
                static_cast<unsigned long long>(masked.writebacks));

    // Step 4b: the stock full flush: unlocks and leaks.
    const FlushTraffic raw = measure([&] { soc.l2().rawFlushAll(); });
    const bool afterRaw = containsBytes(soc.dramRaw(), pattern);
    std::printf("after RAW full flush, pattern in DRAM?    %s  "
                "(%llu writebacks; the hazard the OS change prevents)\n",
                afterRaw ? "YES" : "no",
                static_cast<unsigned long long>(raw.writebacks));
    session.metric("sim_dma_leaked", static_cast<std::uint64_t>(leaked));
    session.metric("sim_leak_after_masked_flush",
                   static_cast<std::uint64_t>(afterMasked));
    session.metric("sim_leak_after_raw_flush",
                   static_cast<std::uint64_t>(afterRaw));
    session.metric("sim_masked_flush_writebacks", masked.writebacks);
    session.metric("sim_masked_flush_bus_writes", masked.busWrites);
    session.metric("sim_raw_flush_writebacks", raw.writebacks);
    session.metric("sim_raw_flush_bus_writes", raw.busWrites);
    std::printf("lockdown register after raw flush:        0x%x "
                "(ways unlocked)\n",
                soc.l2().lockdownReg());

    std::printf("\nPaper findings reproduced: locked entries are never "
                "evicted or written back; a full\ncache flush unlocks "
                "all locked ways, so Sentry's kernel masks locked ways "
                "out of every flush.\n");
    return 0;
}
