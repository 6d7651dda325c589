/**
 * @file
 * A keystore built on the pin-on-SoC abstraction (paper section 10).
 *
 * Stores per-account credentials in PinnedMemory and walks through the
 * attacker's options one by one: DMA, cold boot, bus monitoring, and
 * JTAG under each vendor policy — showing what the architecture
 * recommendation buys and where the remaining edges are.
 *
 *   $ ./example_pinned_keystore
 */

#include <cstdio>
#include <string>
#include <vector>

#include "attacks/dma_attack.hh"
#include "common/bytes.hh"
#include "common/logging.hh"
#include "core/pinned_memory.hh"
#include "hw/bus_monitor.hh"
#include "hw/jtag.hh"
#include "hw/platform.hh"
#include "hw/soc.hh"

using namespace sentry;
using namespace sentry::core;

namespace
{

struct Credential
{
    std::string account;
    std::vector<std::uint8_t> token;
    OnSocRegion slot;
};

} // namespace

int
main()
{
    setQuiet(true);
    hw::Soc soc(hw::PlatformConfig::tegra3(64 * MiB));

    // A 32 KB pinned pool in TrustZone-protected iRAM.
    auto pool = PinnedMemory::create(soc, 32 * KiB, PinBacking::Iram);
    std::printf("keystore pool: %zu bytes of %s, DMA-protected: %s\n",
                pool->freeBytes(), pinBackingName(pool->backing()),
                pool->dmaProtected() ? "yes" : "no");

    // Store a few credentials.
    std::vector<Credential> creds = {
        {"bank", fromHex("ba2c0000ba2c0000ba2c0000ba2c0000"), {}},
        {"mail", fromHex("e4a11000e4a11000e4a11000e4a11000"), {}},
        {"vpn", fromHex("f1f20000f1f20000f1f20000f1f20000"), {}},
    };
    for (auto &cred : creds) {
        cred.slot = pool->alloc(cred.token.size());
        pool->write(cred.slot, 0, cred.token);
        std::printf("  stored %-5s (%zu bytes at 0x%llx)\n",
                    cred.account.c_str(), cred.token.size(),
                    static_cast<unsigned long long>(cred.slot.base));
    }

    // Normal use: read one back.
    std::vector<std::uint8_t> token(16);
    pool->read(creds[0].slot, 0, token);
    std::printf("readback of \"bank\" ok: %s\n\n",
                toHex(token) == toHex(creds[0].token) ? "yes" : "NO");

    // Attacker 1: DMA dump of all system memory.
    attacks::DmaAttack dma;
    std::printf("DMA attack recovers a token?        %s\n",
                dma.run(soc, creds[0].token, "keystore")
                        .secretRecovered
                    ? "YES"
                    : "no");

    // Attacker 2: bus monitor during heavy keystore use.
    {
        StreamMatcher onBus({creds[0].token});
        hw::BusMonitor probe(/*capture_payloads=*/false, &onBus);
        probe.attach(soc.trace());
        for (int i = 0; i < 100; ++i)
            pool->read(creds[i % 3].slot, 0, token);
        probe.detach();
        std::printf("bus probe saw a token?              %s "
                    "(%llu bytes of unrelated traffic)\n",
                    onBus.found(0) ? "YES" : "no",
                    static_cast<unsigned long long>(
                        probe.bytesObserved()));
    }

    // Attacker 3: JTAG, under each vendor policy.
    std::printf("JTAG:\n");
    for (auto policy : {hw::JtagPolicy::Enabled,
                        hw::JtagPolicy::Depopulated,
                        hw::JtagPolicy::FuseDisabled,
                        hw::JtagPolicy::Authenticated}) {
        hw::JtagPort jtag(policy, "vendor-secret");
        if (policy == hw::JtagPolicy::Depopulated)
            jtag.resolderConnector(); // the Riff-Box trick
        const hw::JtagStatus status = jtag.connect();
        bool leaked = false;
        if (status == hw::JtagStatus::Connected) {
            const auto dump =
                jtag.dumpMemory(soc, IRAM_BASE, soc.iramRaw().size());
            leaked = containsBytes(dump, creds[0].token);
        }
        std::printf("  %-14s -> token leaked: %s\n",
                    jtagPolicyName(policy), leaked ? "YES" : "no");
    }

    // Attacker 4: steal the device and cold-boot it.
    soc.powerCycle(0.007);
    std::printf("cold boot recovers a token?         %s\n",
                containsBytes(soc.iramRaw(), creds[0].token) ||
                        containsBytes(soc.dramRaw(), creds[0].token)
                    ? "YES"
                    : "no");

    std::printf("\nTakeaway: pin-on-SoC + burned JTAG fuse leaves only "
                "decapping the package.\n");
    return 0;
}
