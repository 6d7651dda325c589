/**
 * @file
 * Ablation studies for the design choices DESIGN.md calls out:
 *
 *   A. decrypt-on-demand vs eager full decryption at unlock
 *      (the latency motivation for lazy decryption);
 *   B. skipping the post-encrypt cache clean (cleanCacheAfterLock=off):
 *      shows the plaintext-in-DRAM leak the clean prevents;
 *   C. skipping the freed-page zeroing wait: shows freed plaintext
 *      surviving into the locked state;
 *   D. pager pool size sweep (1..4 locked ways) for a fixed background
 *      working set.
 */

#include <cstdio>

#include "apps/background_app.hh"
#include "apps/synthetic_app.hh"
#include "bench_util.hh"
#include "common/bytes.hh"
#include "core/device.hh"

using namespace sentry;
using namespace sentry::core;
using namespace sentry::os;

namespace
{
const auto SECRET = fromHex("ab1ade00ab1ade00ab1ade00ab1ade00");
}

int
main()
{
    setQuiet(true);
    bench::Session session("ablation");
    bench::banner("Ablations", "design-choice experiments");

    // --- A: lazy vs eager decryption at unlock --------------------
    {
        std::printf("A. Unlock latency: decrypt-on-demand vs eager\n");
        for (const bool eager : {false, true}) {
            core::Device device(hw::PlatformConfig::nexus4(128 * MiB));
            apps::SyntheticApp maps(device.kernel(),
                                    apps::AppProfile::byName("Maps"));
            maps.populate({});
            device.sentry().markSensitive(maps.process());
            device.kernel().lockScreen();

            SimStopwatch watch(device.soc().clock());
            device.kernel().unlockScreen("0000");
            if (eager) {
                // Eager policy: touch everything right now.
                const auto &vmas =
                    maps.process().addressSpace().vmas();
                for (const Vma &vma : vmas) {
                    device.kernel().touchRange(maps.process(), vma.base,
                                               vma.size);
                }
            } else {
                maps.resume(); // lazy: only the resume set
            }
            std::printf("   %-22s unlock-to-usable: %6.2f s\n",
                        eager ? "eager (everything)" : "lazy (paper)",
                        watch.elapsedSeconds());
            session.metric(eager ? "sim_unlock_seconds_eager"
                                 : "sim_unlock_seconds_lazy",
                           watch.elapsedSeconds());
        }
    }

    // --- B: cache clean after encrypt-on-lock ---------------------
    {
        std::printf("B. Post-encrypt L2 clean:\n");
        for (const bool clean : {true, false}) {
            SentryOptions options;
            options.cleanCacheAfterLock = clean;
            core::Device device(hw::PlatformConfig::tegra3(64 * MiB),
                                options);
            Process &app = device.kernel().createProcess("app");
            const Vma &heap = device.kernel().addVma(
                app, "heap", VmaType::Heap, 4 * PAGE_SIZE);
            device.kernel().writeVirt(app, heap.base, SECRET.data(),
                                      SECRET.size());
            // The app has been running a while: its plaintext has long
            // been written back to DRAM.
            device.soc().l2().cleanAllMasked();
            device.sentry().markSensitive(app);
            device.kernel().lockScreen();

            // Cold-boot view: cache contents vanish, DRAM remains.
            device.soc().powerCycle(0.0);
            const bool leak =
                device.soc().dram().cells().contains(SECRET);
            std::printf("   clean=%-5s plaintext recoverable after "
                        "reset: %s\n",
                        clean ? "on" : "off",
                        leak ? "YES (leak!)" : "no");
            session.metric(clean ? "sim_leak_clean_on"
                                 : "sim_leak_clean_off",
                           static_cast<std::uint64_t>(leak));
        }
    }

    // --- C: waiting for the freed-page zero thread ----------------
    {
        std::printf("C. Freed-page zeroing before lock:\n");
        for (const bool wait : {true, false}) {
            SentryOptions options;
            options.waitForZeroThread = wait;
            core::Device device(hw::PlatformConfig::tegra3(64 * MiB),
                                options);
            Process &doomed = device.kernel().createProcess("doomed");
            const Vma &heap = device.kernel().addVma(
                doomed, "heap", VmaType::Heap, 4 * PAGE_SIZE);
            device.kernel().writeVirt(doomed, heap.base, SECRET.data(),
                                      SECRET.size());
            device.soc().l2().cleanAllMasked();
            device.kernel().destroyProcess(doomed);

            device.kernel().lockScreen();
            device.soc().l2().cleanAllMasked();
            const bool leak =
                device.soc().dram().cells().contains(SECRET);
            std::printf("   wait=%-5s freed plaintext in locked DRAM: "
                        "%s\n",
                        wait ? "on" : "off",
                        leak ? "YES (leak!)" : "no");
            session.metric(wait ? "sim_leak_wait_on" : "sim_leak_wait_off",
                           static_cast<std::uint64_t>(leak));
        }
    }

    // --- D: pager pool size sweep ---------------------------------
    {
        std::printf("D. Background kernel time vs locked-cache size "
                    "(alpine):\n");
        for (unsigned pagerWays : {1u, 2u, 3u, 4u}) {
            SentryOptions options;
            options.backgroundMode = true;
            options.pagerWays = pagerWays;
            core::Device device(hw::PlatformConfig::tegra3(64 * MiB),
                                options);
            apps::BackgroundApp app(device.kernel(),
                                    apps::BackgroundProfile::alpine());
            app.populate();
            device.sentry().markSensitive(app.process());
            device.sentry().markBackground(app.process());
            device.kernel().lockScreen();

            Rng rng(17);
            app.run(20, rng);
            device.kernel().resetKernelCycles();
            const auto result = app.run(60, rng);
            std::printf("   %u way(s) = %3u KB: kernel time %6.3f s\n",
                        pagerWays, pagerWays * 128,
                        result.kernelSeconds);
            session.metric("sim_kernel_seconds_ways" +
                               std::to_string(pagerWays),
                           result.kernelSeconds);
        }
    }
    return 0;
}
