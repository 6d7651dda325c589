/**
 * @file
 * Quickstart: protect an app's memory with Sentry in ~40 lines.
 *
 * Boots a simulated Tegra 3 device, creates an app holding a secret,
 * marks it sensitive, locks the screen, shows that the secret is gone
 * from DRAM (and that a cold-boot attack finds nothing), then unlocks
 * and reads the data back transparently.
 *
 *   $ ./example_quickstart
 */

#include <cstdio>

#include "attacks/cold_boot.hh"
#include "common/bytes.hh"
#include "core/device.hh"

using namespace sentry;

int
main()
{
    // 1. Boot a device: SoC + kernel + Sentry, wired together.
    core::Device device(hw::PlatformConfig::tegra3(64 * MiB));
    os::Kernel &kernel = device.kernel();

    // 2. Create an app and give it a secret in its heap.
    os::Process &app = kernel.createProcess("messenger");
    const os::Vma &heap =
        kernel.addVma(app, "heap", os::VmaType::Heap, 4 * MiB);
    const auto secret = fromHex("c0ffee11deadbeefc0ffee11deadbeef");
    kernel.writeVirt(app, heap.base + 1000, secret.data(), secret.size());

    // 3. One call: mark the app sensitive ("the settings menu").
    device.sentry().markSensitive(app);

    // The app has been running: its data has been written back to DRAM.
    device.soc().l2().cleanAllMasked();

    const hw::CowBytes &dram = device.soc().dram().cells();
    std::printf("before lock: secret in DRAM?  %s\n",
                dram.contains(secret) ? "YES" : "no");

    // 4. Lock the screen. Sentry encrypts every page of the app with
    //    the volatile root key (which lives only in iRAM).
    kernel.lockScreen();
    std::printf("after lock:  secret in DRAM?  %s\n",
                dram.contains(secret) ? "YES" : "no");
    std::printf("             bytes encrypted: %llu\n",
                static_cast<unsigned long long>(
                    device.sentry().stats().bytesEncryptedOnLock));

    // 5. A thief taps RESET and boots a memory dumper. Nothing.
    attacks::ColdBootAttack attack(
        attacks::ColdBootVariant::DeviceReflash);
    const attacks::v2::AttackOutcome result =
        attack.run(device.soc(), secret, "messenger heap");
    std::printf("cold boot:   %s\n", result.verdict());

    // 6. The rightful owner unlocks; pages decrypt on first touch.
    //    (The cold boot above wiped the device in this run — on a real
    //    device these are alternate futures; here we just re-create.)
    core::Device fresh(hw::PlatformConfig::tegra3(64 * MiB));
    os::Process &app2 = fresh.kernel().createProcess("messenger");
    const os::Vma &heap2 =
        fresh.kernel().addVma(app2, "heap", os::VmaType::Heap, 4 * MiB);
    fresh.kernel().writeVirt(app2, heap2.base + 1000, secret.data(),
                             secret.size());
    fresh.sentry().markSensitive(app2);
    fresh.kernel().lockScreen();
    fresh.kernel().unlockScreen("0000");

    std::uint8_t back[16];
    fresh.kernel().readVirt(app2, heap2.base + 1000, back, 16);
    std::printf("after unlock: data readable?  %s\n",
                toHex({back, 16}) == toHex(secret) ? "yes" : "NO");
    std::printf("on-demand decrypted: %llu bytes (1 page)\n",
                static_cast<unsigned long long>(
                    fresh.sentry().stats().bytesDecryptedOnDemand));
    return 0;
}
