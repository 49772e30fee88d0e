// cpu.h — the runtime CPU check behind every AVX2 dispatch (the GEMM
// micro-kernels in nn/gemm_kernels and the noise kernel in
// util/rng_kernels).
#pragma once

namespace rrp {

/// True when the AVX2 kernels are compiled in (the toolchain accepts
/// -mavx2) AND the CPU reports AVX2.
inline bool avx2_usable() {
#if defined(RRP_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace rrp
