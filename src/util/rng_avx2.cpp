// AVX2 Box–Muller noise kernel.  This translation unit is compiled with
// -mavx2 (and -ffp-contract=off, so mul+add never fuses into FMA); Rng
// reaches it through rng_kernels::avx2_active() after a runtime CPU check.
//
// Four pairs per step, one per double lane:
//   * log u1 — fdlibm e_log.c: u1 = 2^k * m with m in [sqrt(2)/2, sqrt(2)),
//     f = m - 1 exact, s = f / (2 + f), its degree-14 polynomial in s and
//     k * ln2 split in a hi and a lo part; < 1 ULP on u1 in [2^-53, 1];
//   * r = sqrt(-2 log u1) — the correctly rounded _mm256_sqrt_pd;
//   * sincos theta, theta = 2 pi u2 in [0, 2 pi) computed exactly as the
//     scalar path does — q = nearest integer to theta * 2 / pi (0..4),
//     y = (theta - q * pio2_1) - q * pio2_1t (the first difference is
//     exact), fdlibm's __kernel_sin / __kernel_cos on y, and the
//     quadrant's swap and signs; absolute error a few 2^-53.
// The measured worst error (tests/test_rng.cpp) sits far under the lane
// check's bound; rng_kernels.h states the check and its error budget.
#include "util/rng_kernels.h"

#if defined(RRP_HAVE_AVX2)

#include <immintrin.h>

#include <cfloat>
#include <cstring>
#include <numbers>

namespace rrp::rng_kernels {

namespace {

// The scalar path's theta = 2.0 * std::numbers::pi * u2, bit for bit.
constexpr double kTwoPi = 2.0 * std::numbers::pi;

__m256d splat(double v) { return _mm256_set1_pd(v); }
__m256i splat64(std::int64_t v) { return _mm256_set1_epi64x(v); }

// fdlibm's coefficients: e_log.c Lg2/Lg4/Lg6 and Lg1/Lg3/Lg5/Lg7,
// k_sin.c S2..S6 and k_cos.c C1..C6.
constexpr double kLogEven[] = {3.999999999940941908e-01,
                               2.222219843214978396e-01,
                               1.531383769920937332e-01};
constexpr double kLogOdd[] = {6.666666666666735130e-01,
                              2.857142874366239149e-01,
                              1.818357216161805012e-01,
                              1.479819860511658591e-01};
constexpr double kSinTail[] = {8.33333333332248946124e-03,
                               -1.98412698298579493134e-04,
                               2.75573137070700676789e-06,
                               -2.50507602534068634195e-08,
                               1.58969099521155010221e-10};
constexpr double kCos[] = {4.16666666666666019037e-02,
                           -1.38888888888741095749e-03,
                           2.48015872894767294178e-05,
                           -2.75573143513906633035e-07,
                           2.08757232129817482790e-09,
                           -1.13596475577881948265e-11};

// rrp-frame-path: c[0] + x * (c[1] + x * (... + x * c[N-1])).
template <std::size_t N>
__m256d horner(__m256d x, const double (&c)[N]) {
  __m256d acc = splat(c[N - 1]);
  for (std::size_t i = N - 1; i-- > 0;)
    acc = _mm256_add_pd(splat(c[i]), _mm256_mul_pd(x, acc));
  return acc;
}

// rrp-frame-path: fdlibm's log on four positive normal doubles.
__m256d log4(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i mant = _mm256_and_si256(bits, splat64(0x000fffffffffffffLL));
  // Bit 52 set when the mantissa is at least sqrt(2): then m = x's
  // mantissa / 2 and k is one more.
  const __m256i half = _mm256_and_si256(
      _mm256_add_epi64(mant, splat64(0x95f64LL << 32)), splat64(1LL << 52));
  const __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      mant, _mm256_xor_si256(half, splat64(0x3ff0000000000000LL))));
  const __m256i k =
      _mm256_add_epi64(_mm256_sub_epi64(_mm256_srli_epi64(bits, 52),
                                        splat64(1023)),
                       _mm256_srli_epi64(half, 52));
  // int64 -> double for |k| < 2^51: k + 1.5 * 2^52 as bits, minus the bias.
  const __m256d dk = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_add_epi64(k, _mm256_castpd_si256(splat(0x1.8p52)))),
      splat(0x1.8p52));

  const __m256d f = _mm256_sub_pd(m, splat(1.0));
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(splat(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d t1 = _mm256_mul_pd(w, horner(w, kLogEven));
  const __m256d t2 = _mm256_mul_pd(z, horner(w, kLogOdd));
  const __m256d big_r = _mm256_add_pd(t2, t1);
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(splat(0.5), f), f);
  // k*ln2_hi - ((hfsq - (s*(hfsq+R) + k*ln2_lo)) - f)
  const __m256d inner = _mm256_add_pd(
      _mm256_mul_pd(s, _mm256_add_pd(hfsq, big_r)),
      _mm256_mul_pd(dk, splat(1.90821492927058770002e-10)));
  return _mm256_sub_pd(
      _mm256_mul_pd(dk, splat(6.93147180369123816490e-01)),
      _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));
}

// rrp-frame-path: sin and cos of four theta in [0, 2 pi).
void sincos4(__m256d theta, __m256d& sin_out, __m256d& cos_out) {
  // q = round(theta * 2/pi): adding 1.5 * 2^52 rounds to an integer whose
  // low bits are q.
  const __m256d shifted = _mm256_add_pd(
      _mm256_mul_pd(theta, splat(6.36619772367581382433e-01)),
      splat(0x1.8p52));
  const __m256d q = _mm256_sub_pd(shifted, splat(0x1.8p52));
  const __m256i qi = _mm256_castpd_si256(shifted);
  const __m256d y = _mm256_sub_pd(
      _mm256_sub_pd(theta, _mm256_mul_pd(q, splat(1.57079632673412561417e+00))),
      _mm256_mul_pd(q, splat(6.07710050650619224932e-11)));

  const __m256d z = _mm256_mul_pd(y, y);
  // __kernel_sin(y, 0): y + y*z*(S1 + z*(S2 + z*(S3 + z*(S4 + z*(S5 + z*S6)))))
  const __m256d sr = horner(z, kSinTail);
  const __m256d sin_y = _mm256_add_pd(
      y, _mm256_mul_pd(_mm256_mul_pd(z, y),
                       _mm256_add_pd(splat(-1.66666666666666324348e-01),
                                     _mm256_mul_pd(z, sr))));
  // __kernel_cos(y, 0): 1 - (z/2 - z*z*(C1 + z*(C2 + ... + z*C6)))
  const __m256d cr = _mm256_mul_pd(z, horner(z, kCos));
  const __m256d cos_y = _mm256_sub_pd(
      splat(1.0),
      _mm256_sub_pd(_mm256_mul_pd(splat(0.5), z), _mm256_mul_pd(z, cr)));

  // Quadrant q: odd q swaps sin and cos; sin is negated for q & 2, cos
  // for (q + 1) & 2.
  const __m256d odd = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(qi, splat64(1)), splat64(1)));
  const __m256d sin_sign = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_and_si256(qi, splat64(2)), 62));
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(qi, splat64(1)), splat64(2)), 62));
  sin_out = _mm256_xor_pd(_mm256_blendv_pd(sin_y, cos_y, odd), sin_sign);
  cos_out = _mm256_xor_pd(_mm256_blendv_pd(cos_y, sin_y, odd), cos_sign);
}

// rrp-frame-path: r, r cos theta and r sin theta of four pairs.
void pairs4(__m256d u1, __m256d u2, __m256d& r, __m256d& c, __m256d& s) {
  r = _mm256_sqrt_pd(_mm256_mul_pd(splat(-2.0), log4(u1)));
  __m256d sin_t, cos_t;
  sincos4(_mm256_mul_pd(splat(kTwoPi), u2), sin_t, cos_t);
  c = _mm256_mul_pd(r, cos_t);
  s = _mm256_mul_pd(r, sin_t);
}

// rrp-frame-path: the lane check; returns the float of t and sets bit i of
// `accept` for each lane i it proves.
__m128 checked_float(__m256d t, __m256d bound, int& accept) {
  const __m256d lo = _mm256_sub_pd(t, bound);
  const __m256d hi = _mm256_add_pd(t, bound);
  const __m128 ft = _mm256_cvtpd_ps(t);
  const __m128i same = _mm_cmpeq_epi32(_mm_castps_si128(_mm256_cvtpd_ps(lo)),
                                       _mm_castps_si128(_mm256_cvtpd_ps(hi)));
  const __m128 nonzero = _mm_cmp_ps(ft, _mm_setzero_ps(), _CMP_NEQ_OQ);
  // Both ends finite (ordered compares: NaN fails).
  const __m256d abs_mask = _mm256_castsi256_pd(splat64(0x7fffffffffffffffLL));
  const __m256d finite = _mm256_and_pd(
      _mm256_cmp_pd(_mm256_and_pd(lo, abs_mask), splat(DBL_MAX), _CMP_LE_OQ),
      _mm256_cmp_pd(_mm256_and_pd(hi, abs_mask), splat(DBL_MAX), _CMP_LE_OQ));
  accept = _mm_movemask_ps(_mm_and_ps(_mm_castsi128_ps(same), nonzero)) &
           _mm256_movemask_pd(finite);
  return ft;
}

// rrp-frame-path: four pairs of the kernel contract into out[0..8); the
// redo indices are `base` + the local output index.
std::size_t quad(const double* u1, const double* u2, __m256d mean,
                 __m256d stddev, float* out, std::uint32_t base,
                 std::uint32_t* redo) {
  __m256d r, c, s;
  pairs4(_mm256_loadu_pd(u1), _mm256_loadu_pd(u2), r, c, s);
  const __m256d sign = splat(-0.0);
  const __m256d scale =
      _mm256_add_pd(_mm256_andnot_pd(sign, mean),
                    _mm256_mul_pd(_mm256_andnot_pd(sign, stddev), r));
  const __m256d bound = _mm256_add_pd(
      _mm256_mul_pd(splat(kLaneRelBound), scale), splat(kLaneAbsBound));
  int ok_c = 0, ok_s = 0;
  const __m128 fc = checked_float(
      _mm256_add_pd(mean, _mm256_mul_pd(stddev, c)), bound, ok_c);
  const __m128 fs = checked_float(
      _mm256_add_pd(mean, _mm256_mul_pd(stddev, s)), bound, ok_s);
  _mm_storeu_ps(out, _mm_unpacklo_ps(fc, fs));
  _mm_storeu_ps(out + 4, _mm_unpackhi_ps(fc, fs));
  std::size_t m = 0;
  if ((ok_c & ok_s) != 0xF) {
    for (std::uint32_t lane = 0; lane < 4; ++lane) {
      if (((ok_c >> lane) & 1) == 0) redo[m++] = base + 2 * lane;
      if (((ok_s >> lane) & 1) == 0) redo[m++] = base + 2 * lane + 1;
    }
  }
  return m;
}

// The `live` (<= 4) pairs at u1/u2, padded to four lanes with the benign
// pair u1 = 1, u2 = 0.
struct PaddedQuad {
  double u1[4] = {1.0, 1.0, 1.0, 1.0};
  double u2[4] = {0.0, 0.0, 0.0, 0.0};
  PaddedQuad(const double* a, const double* b, std::size_t live) {
    std::memcpy(u1, a, live * sizeof(double));
    std::memcpy(u2, b, live * sizeof(double));
  }
};

}  // namespace

// rrp-frame-path: the AVX2 noise kernel (rng_kernels.h contract).
std::size_t normals_avx2(const double* u1, const double* u2,
                         std::size_t pairs, double mean, double stddev,
                         float* out, std::uint32_t* redo) {
  const __m256d vmean = splat(mean), vstddev = splat(stddev);
  std::size_t m = 0, p = 0;
  for (; p + 4 <= pairs; p += 4)
    m += quad(u1 + p, u2 + p, vmean, vstddev, out + 2 * p,
              static_cast<std::uint32_t>(2 * p), redo + m);
  if (p < pairs) {
    // Keep the live outputs and redo indices of a padded last quad.
    const std::size_t live = pairs - p;
    const PaddedQuad t(u1 + p, u2 + p, live);
    float tail[8];
    std::uint32_t tail_redo[8];
    const std::size_t tm = quad(t.u1, t.u2, vmean, vstddev, tail, 0, tail_redo);
    std::memcpy(out + 2 * p, tail, 2 * live * sizeof(float));
    for (std::size_t i = 0; i < tm; ++i)
      if (tail_redo[i] < 2 * live)
        redo[m++] = static_cast<std::uint32_t>(2 * p) + tail_redo[i];
  }
  return m;
}

void box_muller_avx2(const double* u1, const double* u2, std::size_t pairs,
                     double* r, double* c, double* s) {
  for (std::size_t p = 0; p < pairs; p += 4) {
    const std::size_t live = pairs - p < 4 ? pairs - p : 4;
    const PaddedQuad t(u1 + p, u2 + p, live);
    __m256d vr, vc, vs;
    pairs4(_mm256_loadu_pd(t.u1), _mm256_loadu_pd(t.u2), vr, vc, vs);
    double lr[4], lc[4], ls[4];
    _mm256_storeu_pd(lr, vr);
    _mm256_storeu_pd(lc, vc);
    _mm256_storeu_pd(ls, vs);
    std::memcpy(r + p, lr, live * sizeof(double));
    std::memcpy(c + p, lc, live * sizeof(double));
    std::memcpy(s + p, ls, live * sizeof(double));
  }
}

}  // namespace rrp::rng_kernels

#endif  // RRP_HAVE_AVX2
