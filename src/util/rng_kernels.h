// rng_kernels.h — the Box–Muller pair behind Rng::normal and the batched
// noise kernels behind Rng::normals.
//
// Two interchangeable kernels share one contract (NormalsFn below):
//
//   * scalar — every pair through box_muller, the libm path Rng::normal
//     itself takes (the bit-exactness oracle; always available);
//   * avx2   — log, sqrt and sincos four pairs at a time with the
//     kernel's own fdlibm-style polynomials.  Only compiled when the
//     toolchain accepts -mavx2 and only selected at runtime on hardware
//     that reports AVX2.
//
// Both produce the SAME FLOAT BITS.  The avx2 kernel's values are not
// libm's, so it proves each lane instead: with t' = mean + stddev * r'c'
// its value and B = kLaneRelBound * (|mean| + |stddev| * r') +
// kLaneAbsBound, it accepts the lane only when t' - B and t' + B round to
// the same nonzero float.  libm's t lies within B of t' (see the error
// budget below), and double -> float rounding is monotonic, so
// float(t) is that float too.  Every other lane — NaN, Inf, a zero
// result (u1 = 1 with mean 0 gives t = +0, whose sign the two paths need
// not agree on), or a failed interval — is listed for the caller to
// recompute through box_muller.  The avx2 kernel therefore never has to
// agree with libm; it only has to stay inside its stated error bound.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rrp::rng_kernels {

/// One Box–Muller pair from u1 in (0, 1] and u2 in [0, 1), through libm:
/// r = sqrt(-2 log u1), theta = 2 pi u2, c = r cos theta, s = r sin theta.
/// Rng::normal draws every pair through it, and Rng::normals recomputes
/// the avx2 kernel's fallback lanes through it, so the oracle and the
/// fallback cannot drift apart.
void box_muller(double u1, double u2, double& c, double& s);

// --- the error budget of the lane check ------------------------------------
// Errors are stated relative to S = |mean| + |stddev| * r, the scale of
// every term of t = mean + stddev * (r cos theta).

/// Relative part of B.
inline constexpr double kLaneRelBound = 0x1p-40;
/// Absolute part of B: covers the few 2^-1075 roundings of a subnormal
/// t, where relative bounds stop holding.  Any such t rounds to a zero
/// float and falls back anyway.
inline constexpr double kLaneAbsBound = 0x1p-1060;
/// |r_libm * c_libm - r cos theta| / r for the libm pair: glibc's
/// documented <= 1 ULP for log, sin and cos on x86-64 (log 2^-52 relative,
/// halved by sqrt; cos and sin <= 2^-53 absolute, since |cos| < 1), plus
/// the correctly rounded sqrt and product: 2^-52 + 2^-53 + 2^-53.
inline constexpr double kLibmPairError = 0x1p-51;
/// The roundings outside the pair, relative to S: stddev * p and
/// mean + ... in both paths (4 x 2^-53) and t' +- B (2^-52).
inline constexpr double kRoundingError = 0x1.8p-51;
/// The headroom B keeps over the kernel's measured worst pair error plus
/// kLibmPairError and kRoundingError (tests/test_rng.cpp measures it).
inline constexpr double kLaneHeadroom = 16.0;

/// The noise-kernel contract: for each pair p in [0, pairs), with
/// (c, s) = box_muller(u1[p], u2[p]), out[2p] = float(mean + stddev * c)
/// and out[2p + 1] = float(mean + stddev * s) — except the output indices
/// the kernel writes to `redo` (room for 2 * pairs) and counts in its
/// return value, whose out[] the caller must recompute through
/// box_muller.
using NormalsFn = std::size_t (*)(const double* u1, const double* u2,
                                  std::size_t pairs, double mean,
                                  double stddev, float* out,
                                  std::uint32_t* redo);

/// The scalar kernel: box_muller per pair; never asks for a redo.
std::size_t normals_scalar(const double* u1, const double* u2,
                           std::size_t pairs, double mean, double stddev,
                           float* out, std::uint32_t* redo);

#if defined(RRP_HAVE_AVX2)
/// The AVX2 kernel (four pairs per step, interval-checked lanes).
std::size_t normals_avx2(const double* u1, const double* u2,
                         std::size_t pairs, double mean, double stddev,
                         float* out, std::uint32_t* redo);

/// The AVX2 kernel's own r, r cos theta and r sin theta of each pair,
/// before any check: what the error measurement in the tests reads.
void box_muller_avx2(const double* u1, const double* u2, std::size_t pairs,
                     double* r, double* c, double* s);
#endif

/// True when Rng::normals runs the AVX2 kernel: RRP_SIMD is on and
/// avx2_usable() (util/cpu.h; decided once per process).
bool avx2_active();

}  // namespace rrp::rng_kernels
