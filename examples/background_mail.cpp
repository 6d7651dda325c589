/**
 * @file
 * Background execution while locked: the scenario from the paper's
 * introduction — your mail client keeps syncing while the phone sits
 * locked in your pocket, yet its cleartext never exists outside the
 * SoC.
 *
 * Runs an alpine-style mail reader in Sentry's background mode on a
 * Tegra 3 with two locked cache ways, injects "incoming mail" while
 * locked, shows the DRAM stays clean the whole time, and reads the
 * mail after unlock.
 *
 *   $ ./example_background_mail
 */

#include <cstdio>

#include "apps/background_app.hh"
#include "common/bytes.hh"
#include "core/device.hh"

using namespace sentry;

int
main()
{
    core::SentryOptions options;
    options.placement = core::AesPlacement::LockedL2;
    options.backgroundMode = true;
    options.pagerWays = 2; // 256 KiB of locked frames

    core::Device device(hw::PlatformConfig::tegra3(64 * MiB), options);
    os::Kernel &kernel = device.kernel();

    apps::BackgroundApp mail(kernel,
                             apps::BackgroundProfile::alpine());
    mail.populate();
    device.sentry().markSensitive(mail.process());
    device.sentry().markBackground(mail.process());

    std::printf("locking the screen...\n");
    kernel.lockScreen();

    // Incoming mail arrives while locked: the mail process writes it
    // into its (encrypted-in-DRAM) mailbox through the pager.
    const auto message = fromHex("4d41494c3a20686922");
    const os::Vma &hot = mail.process().addressSpace().vmas()[0];
    kernel.writeVirt(mail.process(), hot.base + 12345, message.data(),
                     message.size());

    // Let the mail client churn for 100 steps.
    Rng rng(7);
    const apps::BackgroundRunResult run = mail.run(100, rng);

    const hw::CowBytes &dram = device.soc().dram().cells();
    device.soc().l2().cleanAllMasked();
    std::printf("while locked:\n");
    std::printf("  kernel time          : %.3f s of %.3f s total\n",
                run.kernelSeconds, run.totalSeconds);
    std::printf("  pager page-ins       : %llu (evictions: %llu)\n",
                static_cast<unsigned long long>(
                    device.sentry().pager()->stats().pageIns),
                static_cast<unsigned long long>(
                    device.sentry().pager()->stats().evictions));
    std::printf("  mail text in DRAM?   : %s\n",
                dram.contains(message) ? "YES (bug!)" : "no");

    kernel.unlockScreen("0000");
    std::uint8_t back[9];
    kernel.readVirt(mail.process(), hot.base + 12345, back,
                    sizeof(back));
    std::printf("after unlock:\n");
    std::printf("  mail intact?         : %s\n",
                toHex({back, sizeof(back)}) == toHex(message) ? "yes"
                                                              : "NO");
    return 0;
}
