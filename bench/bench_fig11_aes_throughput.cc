/**
 * @file
 * Figure 11 — AES performance (MB/s) on 4 KB pages.
 *
 * Left (Nexus 4): generic user-mode AES, generic AES via the kernel
 * Crypto API, and the hardware crypto engine (down-scaled, as it is
 * when the device is locked — the condition Sentry runs under).
 * Right (Tegra 3): generic AES vs AES On SoC (locked-L2 and iRAM).
 *
 * Paper shape: the accelerator LOSES to the CPU on 4 KB pages (setup
 * cost + down-scaling); Nexus is much faster than Tegra; AES On SoC is
 * within 1% of generic AES.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "common/bytes.hh"
#include "core/locked_way_manager.hh"
#include "core/onsoc_allocator.hh"
#include "crypto/aes_on_soc.hh"
#include "crypto/sha256.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"

using namespace sentry;
using namespace sentry::crypto;

namespace
{

constexpr std::size_t TOTAL = 8 * MiB; // processed in 4 KB requests
constexpr std::size_t AUDITED_BYTES = 128 * KiB;

/** MB/s for a SimAesEngine processing TOTAL bytes in 4 KB chunks. */
double
engineRate(hw::Soc &soc, SimAesEngine &engine)
{
    std::vector<std::uint8_t> page(4 * KiB, 0x7e);
    SimStopwatch watch(soc.clock());
    for (std::size_t done = 0; done < TOTAL; done += page.size())
        engine.cbcEncrypt(Iv{}, page);
    return static_cast<double>(TOTAL) / (1024.0 * 1024.0) /
           watch.elapsedSeconds();
}

} // namespace

int
main()
{
    setQuiet(true);
    bench::Session session("fig11_aes_throughput");
    bench::banner("Figure 11: AES performance (MB/s, 4 KB requests)",
                  "Nexus 4 (left) and Tegra 3 (right)");

    const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    const auto layout = AesStateLayout::forKeyBytes(16);

    std::printf("Nexus 4:\n");
    {
        hw::Soc soc(hw::PlatformConfig::nexus4(64 * MiB));

        SimAesEngine user(soc, DRAM_BASE + 16 * MiB, key,
                          StatePlacement::Dram, /*kernel_path=*/false);
        const double userRate = engineRate(soc, user);
        std::printf("  %-28s %8.1f MB/s\n", "Generic AES (user)", userRate);
        session.metric("sim_nexus4_user_mbps", userRate);

        SimAesEngine kernel(soc, DRAM_BASE + 17 * MiB, key,
                            StatePlacement::Dram, /*kernel_path=*/true);
        const double kernelRate = engineRate(soc, kernel);
        std::printf("  %-28s %8.1f MB/s\n", "Generic AES (in kernel)",
                    kernelRate);
        session.metric("sim_nexus4_kernel_mbps", kernelRate);

        // The crypto engine, down-scaled as it is while locked.
        soc.accel()->setKey(key);
        soc.accel()->setDownscaled(true);
        std::vector<std::uint8_t> page(4 * KiB, 0x7e);
        SimStopwatch watch(soc.clock());
        for (std::size_t done = 0; done < TOTAL; done += page.size())
            soc.accel()->cbcEncrypt(Iv{}, page);
        const double lockedRate = static_cast<double>(TOTAL) /
                                  (1024.0 * 1024.0) /
                                  watch.elapsedSeconds();
        std::printf("  %-28s %8.1f MB/s\n", "Crypto Hardware (locked)",
                    lockedRate);

        soc.accel()->setDownscaled(false);
        watch.restart();
        for (std::size_t done = 0; done < TOTAL; done += page.size())
            soc.accel()->cbcEncrypt(Iv{}, page);
        const double awakeRate = static_cast<double>(TOTAL) /
                                 (1024.0 * 1024.0) /
                                 watch.elapsedSeconds();
        std::printf("  %-28s %8.1f MB/s  (%.1fx the locked rate)\n",
                    "Crypto Hardware (awake)", awakeRate,
                    awakeRate / lockedRate);
        session.metric("sim_nexus4_accel_locked_mbps", lockedRate);
        session.metric("sim_nexus4_accel_awake_mbps", awakeRate);
        session.socStats(soc, "nexus4");
    }

    std::printf("Tegra 3:\n");
    {
        hw::Soc soc(hw::PlatformConfig::tegra3(64 * MiB));

        SimAesEngine generic(soc, DRAM_BASE + 16 * MiB, key,
                             StatePlacement::Dram);
        const double genericRate = engineRate(soc, generic);
        std::printf("  %-28s %8.1f MB/s\n", "Generic AES", genericRate);
        session.metric("sim_tegra3_generic_mbps", genericRate);

        core::LockedWayManager ways(soc, DRAM_BASE + 32 * MiB);
        SimAesEngine lockedL2(soc, ways.lockWay()->base, key,
                              StatePlacement::LockedL2);
        const double lockedRate = engineRate(soc, lockedL2);
        std::printf("  %-28s %8.1f MB/s\n", "AES_On_SoC (Locked L2)",
                    lockedRate);
        session.metric("sim_tegra3_lockedl2_mbps", lockedRate);

        core::OnSocAllocator iram =
            core::OnSocAllocator::forIram(soc.iram().size());
        SimAesEngine iramEngine(soc, iram.alloc(layout.totalBytes()).base,
                                key, StatePlacement::Iram);
        const double iramRate = engineRate(soc, iramEngine);
        std::printf("  %-28s %8.1f MB/s\n", "AES_On_SoC (iRAM)", iramRate);
        session.metric("sim_tegra3_iram_mbps", iramRate);
        session.socStats(soc, "tegra3");
    }

    // The fully audited DRAM-placement CBC path: every table lookup and
    // round-key fetch is one simulated access through the L2.
    std::printf("\nAudited CBC (DRAM placement, %zu KiB):\n",
                AUDITED_BYTES / KiB);
    {
        hw::Soc soc(hw::PlatformConfig::tegra3(64 * MiB));
        SimAesEngine engine(soc, DRAM_BASE + 16 * MiB, key,
                            StatePlacement::Dram);
        std::vector<std::uint8_t> data(AUDITED_BYTES);
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<std::uint8_t>(i * 131 + 7);
        cbcEncrypt(engine, Iv{}, data);

        const hw::L2Stats &l2 = soc.l2().stats();
        const hw::BusStats &bus = soc.bus().stats();
        const Cycles cycles = soc.clock().now();
        std::printf("  %llu cycles, %llu L2 hits, %llu L2 misses\n",
                    static_cast<unsigned long long>(cycles),
                    static_cast<unsigned long long>(l2.hits),
                    static_cast<unsigned long long>(l2.misses));
        session.metric("sim_audited_cycles",
                       static_cast<std::uint64_t>(cycles));
        session.metric("sim_audited_l2_hits", l2.hits);
        session.metric("sim_audited_l2_misses", l2.misses);
        session.metric("sim_audited_l2_fills", l2.fills);
        session.metric("sim_audited_l2_writebacks", l2.writebacks);
        session.metric("sim_audited_bus_reads", bus.reads);
        session.metric("sim_audited_bus_writes", bus.writes);
        const Sha256Digest digest = Sha256::hash(data);
        session.metric("sim_audited_ciphertext_sha256",
                       toHex(std::span<const std::uint8_t>(digest)));
    }

    std::printf("\nPaper shape: accelerator slower than CPU on 4 KB "
                "pages while locked (and ~4x faster awake);\nNexus >> "
                "Tegra; AES On SoC within 1%% of generic AES.\n");
    return 0;
}
