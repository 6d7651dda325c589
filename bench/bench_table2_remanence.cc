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
 *
 * The first 2 s-reset trial's reset runs again on the active and on the
 * portable host kernel tier: the post-reset DRAM and iRAM must match bit
 * for bit (exit 1 otherwise), and both host times of the reset, whose
 * power-loss decay is the one byte kernel with an accelerated tier, are
 * published.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "attacks/cold_boot.hh"
#include "bench_util.hh"
#include "common/bytes.hh"
#include "crypto/sha256.hh"
#include "host/kernels.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"

using namespace sentry;
using namespace sentry::attacks;

namespace
{

const auto PATTERN = fromHex("5a5aa5a5c33c3cc3");

/** A fresh device whose DRAM and iRAM hold the repeating pattern. */
std::unique_ptr<hw::Soc>
filledSoc(std::uint64_t seed)
{
    // 256 MiB stands in for the paper's 1 GiB tablet; remanence is a
    // per-cell property, so the fraction is size-independent.
    hw::PlatformConfig config = hw::PlatformConfig::tegra3(256 * MiB);
    config.seed = seed;
    auto soc = std::make_unique<hw::Soc>(config);
    soc->dram().fillCells(PATTERN);
    soc->iram().fillCells(PATTERN);
    return soc;
}

/** One measurement: fresh device, filled memories, one reset. */
RemanenceMeasurement
runTrial(ColdBootVariant variant, std::uint64_t seed)
{
    const auto soc = filledSoc(seed);
    return ColdBootAttack(variant).measureRemanence(*soc, PATTERN);
}

/** Rerun the first 2 s-reset trial's reset on the active and on the
 * portable kernel tier; exit 1 if the post-reset DRAM or iRAM differ. */
void
tierParitySection(bench::Session &session)
{
    struct TierRun
    {
        std::string dramDigest;
        std::string iramDigest;
        double seconds = 0.0;
    };
    const auto run = [] {
        const auto soc = filledSoc(1000);
        TierRun out;
        const auto t0 = std::chrono::steady_clock::now();
        ColdBootAttack(ColdBootVariant::TwoSecondReset).performReset(*soc);
        out.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        out.dramDigest = toHex(crypto::Sha256::hash(soc->dram().raw()));
        out.iramDigest = toHex(crypto::Sha256::hash(soc->iram().raw()));
        return out;
    };
    const TierRun active = run();
    host::setActiveKernelsForTest(&host::portableKernels());
    const TierRun portable = run();
    host::setActiveKernelsForTest(nullptr);
    if (active.dramDigest != portable.dramDigest ||
        active.iramDigest != portable.iramDigest) {
        std::fprintf(stderr,
                     "table2: kernel tiers disagree on the 2 s reset "
                     "(DRAM sha256 %s vs %s, iRAM sha256 %s vs %s)\n",
                     active.dramDigest.c_str(), portable.dramDigest.c_str(),
                     active.iramDigest.c_str(), portable.iramDigest.c_str());
        std::exit(1);
    }

    std::printf("\nhost bytes tier (%s), the power-loss decay of one "
                "256 MiB 2 s reset:\n",
                host::kernels().bytes.tier);
    std::printf("  active tier  : %8.3f s host\n", active.seconds);
    std::printf("  portable tier: %8.3f s host\n", portable.seconds);
    std::printf("  host speedup : %8.2fx  (post-reset DRAM and iRAM "
                "bit-identical)\n",
                portable.seconds / active.seconds);
    session.metric("host_wall_tier_active_seconds", active.seconds);
    session.metric("host_wall_tier_portable_seconds", portable.seconds);
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
        soc.iram().fillCells(pattern);
        ColdBootAttack frozen(ColdBootVariant::TwoSecondReset, -18.0);
        const auto m = frozen.measureRemanence(soc, pattern);
        std::printf("%-30s %13.1f%% %13.1f%%\n",
                    "2 Second Reset (frozen)", 100.0 * m.iramFraction,
                    100.0 * m.dramFraction);
        session.metric("sim_dram_pct_frozen", 100.0 * m.dramFraction);
    }

    tierParitySection(session);
    return 0;
}
