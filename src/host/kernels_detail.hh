/**
 * @file
 * Internal seams between the registry (host/kernels.cc) and the
 * per-architecture kernel implementations. Each probe fills @p out and
 * returns true when this build *and* this machine can run the tier;
 * content verification happens in the registry, not here.
 */

#ifndef SENTRY_HOST_KERNELS_DETAIL_HH
#define SENTRY_HOST_KERNELS_DETAIL_HH

#include "host/kernels.hh"

namespace sentry::host::detail
{

/** The two needle bytes a containsBytes scan filters candidates on. */
struct NeedleFilter
{
    std::size_t first; //!< index of the first byte that is not 0x00
    std::size_t last;  //!< index of the last byte that is not 0x00
};

/**
 * Pick the filter bytes of a needle of @p len >= 1 bytes, falling back
 * to its ends when every byte is 0x00. Device memory is mostly zeroed,
 * so a filter on a 0x00 byte would make nearly every position there a
 * memcmp candidate.
 */
inline NeedleFilter
needleFilter(const std::uint8_t *needle, std::size_t len)
{
    std::size_t first = 0;
    while (first < len && needle[first] == 0)
        ++first;
    if (first == len)
        return {0, len - 1};
    std::size_t last = len - 1;
    while (needle[last] == 0)
        --last;
    return {first, last};
}

/** AES-NI (+ VAES when available) tier; x86-64 builds only. */
bool x86AesKernel(AesKernel &out, const CpuFeatures &features);

/** ARMv8 cryptographic-extension tier; aarch64 builds only. */
bool armAesKernel(AesKernel &out, const CpuFeatures &features);

/** AVX2 byte-scan tier; x86-64 builds only. */
bool x86BytesKernel(BytesKernel &out, const CpuFeatures &features);

} // namespace sentry::host::detail

#endif // SENTRY_HOST_KERNELS_DETAIL_HH
