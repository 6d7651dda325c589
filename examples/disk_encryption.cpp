/**
 * @file
 * Protecting persistent state: dm-crypt over AES On SoC.
 *
 * Demonstrates the paper's section 7 integration path: Sentry registers
 * AES On SoC with the kernel Crypto API at a higher priority than the
 * generic AES, so dm-crypt — completely unmodified — picks it up. The
 * example writes a file through the stack, then shows:
 *   - the disk holds only ciphertext,
 *   - the persistent root key (password + hardware fuse) never appears
 *     in DRAM,
 *   - throughput with the buffer cache vs direct I/O (Figure 9 flavour).
 *
 *   $ ./example_disk_encryption
 */

#include <cstdio>
#include <cstring>

#include "common/bytes.hh"
#include "core/device.hh"
#include "os/buffer_cache.hh"
#include "os/dm_crypt.hh"
#include "os/filebench.hh"

using namespace sentry;

int
main()
{
    core::Device device(hw::PlatformConfig::tegra3(64 * MiB));
    os::Kernel &kernel = device.kernel();
    device.sentry().registerCryptoProviders();

    // Derive the persistent root key: boot password + secure fuse.
    if (!device.sentry().keys().derivePersistentKey("correct horse")) {
        std::printf("no secure world: cannot derive persistent key\n");
        return 1;
    }
    const core::RootKey key = device.sentry().keys().persistentKey();

    // Stack: filebench -> buffer cache -> dm-crypt -> ramdisk.
    os::RamBlockDevice disk(device.soc().clock(), 16 * MiB);
    os::DmCrypt dm(disk, kernel.cryptoApi().allocCipher(
                             "aes", {key.data(), key.size()}));
    os::BufferCache cache(device.soc().clock(), dm, 4 * MiB);

    std::printf("dm-crypt cipher placement: %s\n",
                crypto::statePlacementName(dm.cipher().placement()));

    // Write a "document" containing something worth stealing.
    const char *text = "Q3 acquisition target: Initech, $4.2B";
    std::vector<std::uint8_t> block(os::BLOCK_SIZE, 0);
    std::memcpy(block.data(), text, std::strlen(text));
    cache.write(42, block, /*direct_io=*/false);

    const std::span<const std::uint8_t> needle{
        reinterpret_cast<const std::uint8_t *>(text), std::strlen(text)};
    std::printf("plaintext on disk?        %s\n",
                containsBytes(disk.raw(), needle) ? "YES (bug!)" : "no");

    device.soc().l2().cleanAllMasked();
    const hw::CowBytes &dram = device.soc().dram().cells();
    std::printf("root key in DRAM?         %s\n",
                dram.contains({key.data(), key.size()})
                    ? "YES (bug!)"
                    : "no");

    // Read it back through the full decrypt path.
    std::vector<std::uint8_t> back(os::BLOCK_SIZE);
    cache.read(42, back, /*direct_io=*/true);
    std::printf("document readable?        %s\n",
                std::memcmp(back.data(), text, std::strlen(text)) == 0
                    ? "yes"
                    : "NO");

    // A small Figure-9-style throughput comparison.
    os::Filebench bench(device.soc().clock(), cache, 4 * MiB);
    Rng rng(1);
    const auto cached = bench.run(os::FilebenchWorkload::RandRead,
                                  4 * MiB, false, rng);
    const auto direct = bench.run(os::FilebenchWorkload::RandRead,
                                  4 * MiB, true, rng);
    std::printf("randread, buffered        %8.1f MB/s\n",
                cached.mbPerSec());
    std::printf("randread, direct I/O      %8.1f MB/s  "
                "(the real crypto cost)\n",
                direct.mbPerSec());
    return 0;
}
