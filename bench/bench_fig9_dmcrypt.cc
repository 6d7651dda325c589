/**
 * @file
 * Figure 9 — dm-crypt throughput for random reads and random
 * read/writes, buffered and with direct I/O, under three ciphers:
 * none, generic (kernel) AES, and Sentry's AES On SoC.
 *
 * Setup mirrors the paper: an in-memory partition protected by
 * dm-crypt, filebench-style workloads, Tegra 3 with cache locking.
 *
 * Paper shape: the buffer cache masks most of the crypto cost for
 * cached reads; randrw loses ~2x even cached; with direct I/O the
 * crypto cost is fully exposed; Sentry ~= generic AES (<1% apart).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "bench_util.hh"
#include "crypto/aes_on_soc.hh"
#include "crypto/sha256.hh"
#include "common/bytes.hh"
#include "core/device.hh"
#include "os/buffer_cache.hh"
#include "os/dm_crypt.hh"
#include "os/filebench.hh"

using namespace sentry;
using namespace sentry::os;

namespace
{

enum class CryptoMode
{
    None,
    GenericAes,
    Sentry,
};

const char *
modeName(CryptoMode mode)
{
    switch (mode) {
      case CryptoMode::None:
        return "No Crypto";
      case CryptoMode::GenericAes:
        return "Generic AES";
      case CryptoMode::Sentry:
        return "Sentry";
    }
    return "?";
}

/** The paper's partition is 450 MB; 32 MB keeps trials fast with the
 *  same cached/uncached contrast. */
constexpr std::size_t PARTITION = 32 * MiB;
constexpr std::size_t IO_BYTES = 16 * MiB;

/**
 * Boot-once, fork-per-trial: the five trial seeds each get one warmed
 * template (booted + crypto providers registered), cached for the
 * whole run; every runOne() call forks its seed's snapshot instead of
 * re-booting. Simulated MB/s stay bit-identical to the cold-boot
 * numbers in bench/reference/ — only host wall-clock changes.
 */
core::Device &
forkedDevice(std::uint64_t seed)
{
    static std::map<std::uint64_t, std::unique_ptr<bench::WarmDevice>>
        cache;
    auto &slot = cache[seed];
    if (!slot) {
        core::SentryOptions options;
        options.placement = core::AesPlacement::LockedL2;
        hw::PlatformConfig config = hw::PlatformConfig::tegra3(64 * MiB);
        config.seed = seed;
        slot = std::make_unique<bench::WarmDevice>(
            config, options, [](core::Device &device) {
                device.sentry().registerCryptoProviders();
            });
    }
    return slot->fork();
}

double
runOne(CryptoMode mode, FilebenchWorkload workload, bool direct_io,
       std::uint64_t seed)
{
    core::Device &device = forkedDevice(seed);

    RamBlockDevice disk(device.soc().clock(), PARTITION);
    const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");

    std::unique_ptr<DmCrypt> dm;
    BlockLayer *layer = &disk;
    if (mode != CryptoMode::None) {
        auto &api = device.kernel().cryptoApi();
        std::unique_ptr<crypto::SimAesEngine> cipher;
        if (mode == CryptoMode::GenericAes) {
            for (const auto &impl : api.implementations()) {
                if (impl.implName == "aes-generic")
                    cipher = impl.factory(key);
            }
        } else {
            cipher = api.allocCipher("aes", key); // best = AES On SoC
        }
        // kcryptd spreads write-side encryption across all four cores.
        dm = std::make_unique<DmCrypt>(disk, std::move(cipher),
                                       device.soc().config().cores);
        layer = dm.get();
    }

    BufferCache cache(device.soc().clock(), *layer, PARTITION / 2);
    Filebench bench(device.soc().clock(), cache, PARTITION / 2);
    Rng rng(seed);
    return bench.run(workload, IO_BYTES, direct_io, rng).mbPerSec();
}

const char *
modeSlug(CryptoMode mode)
{
    switch (mode) {
      case CryptoMode::None:
        return "none";
      case CryptoMode::GenericAes:
        return "generic";
      case CryptoMode::Sentry:
        return "sentry";
    }
    return "?";
}

void
runWorkload(bench::Session &session, FilebenchWorkload workload,
            bool direct_io)
{
    std::printf("%-22s", direct_io
                             ? (std::string(filebenchWorkloadName(
                                    workload)) +
                                " (direct I/O)")
                                   .c_str()
                             : filebenchWorkloadName(workload));
    RunningStat sentryStat;
    for (CryptoMode mode : {CryptoMode::None, CryptoMode::GenericAes,
                            CryptoMode::Sentry}) {
        RunningStat stat;
        for (unsigned trial = 0; trial < 5; ++trial)
            stat.add(runOne(mode, workload, direct_io, 40 + trial));
        std::printf(" %11.1f", stat.mean());
        // Simulated MB/s: deterministic given the seeds above.
        session.metric(std::string("sim_mbps_") +
                           filebenchWorkloadName(workload) +
                           (direct_io ? "_direct_" : "_buffered_") +
                           modeSlug(mode),
                       stat.mean());
        if (mode == CryptoMode::Sentry)
            sentryStat = stat;
    }
    std::printf("   (sentry p50/p95 %.1f/%.1f)\n", sentryStat.p50(),
                sentryStat.p95());
}

/**
 * Write 4 MiB through dm-crypt, one writeBlock() per block, with
 * kcryptd on all four cores, and pin the simulated cycles and the
 * on-disk ciphertext.
 */
void
kcryptdSection(bench::Session &session)
{
    constexpr std::size_t BLOCKS = 1024; // 4 MiB
    const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    std::vector<std::uint8_t> data(BLOCKS * BLOCK_SIZE);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 29 + 3);

    core::Device device(hw::PlatformConfig::tegra3(64 * MiB));
    device.sentry().registerCryptoProviders();
    RamBlockDevice disk(device.soc().clock(), PARTITION);
    DmCrypt dm(disk, device.kernel().cryptoApi().allocCipher("aes", key),
               4);
    const Cycles c0 = device.soc().clock().now();
    for (std::size_t b = 0; b < BLOCKS; ++b)
        dm.writeBlock(b, std::span(data).subspan(b * BLOCK_SIZE, BLOCK_SIZE));
    const Cycles cycles = device.soc().clock().now() - c0;

    std::printf("\nkcryptd write (%zu MiB, 4 workers): %llu cycles\n",
                data.size() / MiB, static_cast<unsigned long long>(cycles));
    session.metric("sim_kcryptd_batch_cycles",
                   static_cast<std::uint64_t>(cycles));
    session.metric("sim_kcryptd_ciphertext_sha256",
                   toHex(crypto::Sha256::hash(
                       disk.raw().first(data.size()))));
}

/**
 * Time the host-side CBC bulk path under the active kernel tier and
 * again pinned to the portable tier. Ciphertexts must match byte for
 * byte — the tiers are interchangeable by construction (registry KATs)
 * and this cross-check would catch a divergence on the actual workload.
 */
void
hostTierSection(bench::Session &session)
{
    const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    const crypto::AesKeySchedule schedule(key);
    const crypto::HostAesCbc cbc(schedule);
    crypto::Iv iv{};
    for (std::size_t i = 0; i < iv.size(); ++i)
        iv[i] = static_cast<std::uint8_t>(i * 17 + 1);

    std::vector<std::uint8_t> seedBuf(8 * MiB);
    for (std::size_t i = 0; i < seedBuf.size(); ++i)
        seedBuf[i] = static_cast<std::uint8_t>(i * 37 + 11);

    const auto timeTier = [&](std::vector<std::uint8_t> &buf) {
        buf = seedBuf;
        const auto t0 = std::chrono::steady_clock::now();
        for (unsigned pass = 0; pass < 8; ++pass) {
            cbc.cbcEncrypt(iv, buf);
            cbc.cbcDecrypt(iv, buf);
        }
        cbc.cbcEncrypt(iv, buf);
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    std::vector<std::uint8_t> activeOut;
    std::vector<std::uint8_t> portableOut;
    const double active = timeTier(activeOut);
    host::setActiveKernelsForTest(&host::portableKernels());
    const double portable = timeTier(portableOut);
    host::setActiveKernelsForTest(nullptr);
    if (activeOut != portableOut) {
        std::fprintf(stderr, "fig9: kernel tiers disagree on the bulk "
                             "CBC workload\n");
        std::exit(1);
    }

    std::printf("\nhost AES tier (%s), 8 MiB CBC x8 round trips:\n",
                host::kernels().aes.tier);
    std::printf("  active tier  : %8.3f s host\n", active);
    std::printf("  portable tier: %8.3f s host\n", portable);
    std::printf("  host speedup : %8.2fx  (ciphertext bit-identical)\n",
                portable / active);
    session.metric("host_wall_tier_active_seconds", active);
    session.metric("host_wall_tier_portable_seconds", portable);
    session.metric("sim_tier_ciphertext_sha256",
                   toHex(crypto::Sha256::hash(activeOut)));
}

} // namespace

int
main()
{
    setQuiet(true);
    bench::Session session("fig9_dmcrypt");
    bench::banner("Figure 9: dm-crypt throughput (MB/s)",
                  "randread and randrw, buffered vs direct I/O, "
                  "Tegra 3 with cache locking");

    std::printf("%-22s %11s %11s %11s\n", "workload",
                modeName(CryptoMode::None), modeName(CryptoMode::GenericAes),
                modeName(CryptoMode::Sentry));
    runWorkload(session, FilebenchWorkload::RandRead, false);
    runWorkload(session, FilebenchWorkload::RandRead, true);
    runWorkload(session, FilebenchWorkload::RandRW, false);
    runWorkload(session, FilebenchWorkload::RandRW, true);

    kcryptdSection(session);
    hostTierSection(session);

    std::printf("\nPaper shape: cached randread masks encryption "
                "entirely; randrw pays ~2x even cached;\ndirect I/O "
                "exposes the full crypto cost; Sentry tracks generic "
                "AES within ~1%%.\n");
    return 0;
}
