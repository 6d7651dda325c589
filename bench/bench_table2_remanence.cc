/**
 * @file
 * Table 2 — iRAM (SRAM) and DRAM data remanence on a commodity tablet.
 *
 * Methodology per section 4.1: fill memory with a repeating 8-byte
 * pattern, perform each of the three board resets, dump all of DRAM
 * and iRAM from the attacker boot, grep for the pattern, and report
 * the surviving fraction. Five trials each, room temperature.
 *
 * Paper reference values:
 *   OS reboot (no power loss):  iRAM 100%,  DRAM 96.4%
 *   Device reflash (power loss): iRAM 0%,   DRAM 97.5%
 *   2 second reset (power loss): iRAM 0%,   DRAM 0.1%
 */

#include <cstdio>

#include "attacks/cold_boot.hh"
#include "bench_util.hh"
#include "common/bytes.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"

using namespace sentry;
using namespace sentry::attacks;

namespace
{

/** One measurement: fresh device, filled memories, one reset. */
RemanenceMeasurement
runTrial(ColdBootVariant variant, std::uint64_t seed)
{
    // 256 MiB stands in for the paper's 1 GiB tablet; remanence is a
    // per-cell property, so the fraction is size-independent.
    hw::PlatformConfig config = hw::PlatformConfig::tegra3(256 * MiB);
    config.seed = seed;
    hw::Soc soc(config);

    const auto pattern = fromHex("5a5aa5a5c33c3cc3");
    soc.dram().fillCells(pattern);
    fillPattern(soc.iram().raw(), pattern);

    ColdBootAttack attack(variant);
    return attack.measureRemanence(soc, pattern);
}

} // namespace

int
main()
{
    setQuiet(true);
    bench::Session session("table2_remanence");
    bench::banner("Table 2: iRAM and DRAM data remanence rates",
                  "memory preserved after each reset type "
                  "(5 trials, room temperature)");

    struct Row
    {
        ColdBootVariant variant;
        const char *label;
        double paperIram, paperDram;
    };
    const Row rows[] = {
        {ColdBootVariant::OsReboot, "OS Reboot (no power loss)", 100.0,
         96.4},
        {ColdBootVariant::DeviceReflash, "Device Reflash (power loss)",
         0.0, 97.5},
        {ColdBootVariant::TwoSecondReset, "2 Second Reset (power loss)",
         0.0, 0.1},
    };
    const char *slugs[] = {"os_reboot", "reflash", "two_second"};

    std::printf("%-30s %14s %14s %20s\n", "Memory Preserved", "iRAM",
                "DRAM", "(paper: iRAM/DRAM)");
    for (std::size_t r = 0; r < std::size(rows); ++r) {
        const Row &row = rows[r];
        RunningStat iram, dram;
        for (unsigned trial = 0; trial < 5; ++trial) {
            const RemanenceMeasurement m =
                runTrial(row.variant, 1000 + trial);
            iram.add(100.0 * m.iramFraction);
            dram.add(100.0 * m.dramFraction);
        }
        std::printf("%-30s %13.1f%% %13.1f%% %11.1f%% /%5.1f%%\n",
                    row.label, iram.mean(), dram.mean(), row.paperIram,
                    row.paperDram);
        session.metric(std::string("sim_iram_pct_") + slugs[r],
                       iram.mean());
        session.metric(std::string("sim_dram_pct_") + slugs[r],
                       dram.mean());
    }

    std::printf("\nFreezer variant (2 s reset at -18 C, Frost-style):\n");
    {
        hw::PlatformConfig config = hw::PlatformConfig::tegra3(256 * MiB);
        hw::Soc soc(config);
        const auto pattern = fromHex("5a5aa5a5c33c3cc3");
        soc.dram().fillCells(pattern);
        fillPattern(soc.iram().raw(), pattern);
        ColdBootAttack frozen(ColdBootVariant::TwoSecondReset, -18.0);
        const auto m = frozen.measureRemanence(soc, pattern);
        std::printf("%-30s %13.1f%% %13.1f%%\n",
                    "2 Second Reset (frozen)", 100.0 * m.iramFraction,
                    100.0 * m.dramFraction);
        session.metric("sim_dram_pct_frozen", 100.0 * m.dramFraction);
    }
    return 0;
}
