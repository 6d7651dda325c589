/**
 * @file
 * Internal seams between the registry (host/kernels.cc) and the
 * per-architecture kernel implementations: the AES-NI and ARMv8 AES
 * tiers and the AVX2 power-loss decay tier. Each probe fills @p out and
 * returns true when this build *and* this machine can run the tier;
 * content verification happens in the registry, not here.
 */

#ifndef SENTRY_HOST_KERNELS_DETAIL_HH
#define SENTRY_HOST_KERNELS_DETAIL_HH

#include "host/kernels.hh"

namespace sentry::host::detail
{

/** AES-NI (+ VAES when available) tier; x86-64 builds only. */
bool x86AesKernel(AesKernel &out, const CpuFeatures &features);

/** ARMv8 cryptographic-extension tier; aarch64 builds only. */
bool armAesKernel(AesKernel &out, const CpuFeatures &features);

/** AVX2 power-loss decay tier; x86-64 builds only. */
bool x86BytesKernel(BytesKernel &out, const CpuFeatures &features);

} // namespace sentry::host::detail

#endif // SENTRY_HOST_KERNELS_DETAIL_HH
