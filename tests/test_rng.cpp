#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numbers>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/checks.h"
#include "util/cpu.h"
#include "util/rng.h"
#include "util/rng_kernels.h"

namespace rrp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversFullRangeInclusive) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);

  // The full int range: the drawn offset exceeds INT_MAX, so the sum must
  // not be done in int (signed overflow; the UBSan build reports it).
  bool negative = false, positive = false;
  for (int i = 0; i < 64; ++i) {
    const int v = rng.uniform_int(std::numeric_limits<int>::min(),
                                  std::numeric_limits<int>::max());
    negative |= v < 0;
    positive |= v > 0;
  }
  EXPECT_TRUE(negative && positive);
}

TEST(Rng, UniformU64RejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_u64(0), PreconditionError);
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalScaleAndShift) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(23);
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i)
    ++counts[rng.categorical({1.0, 2.0, 1.0})];
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.5, 0.02);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.02);
}

TEST(Rng, CategoricalZeroWeightNeverPicked) {
  Rng rng(29);
  for (int i = 0; i < 2000; ++i)
    EXPECT_NE(rng.categorical({1.0, 0.0, 1.0}), 1u);
}

TEST(Rng, CategoricalRejectsBadInput) {
  Rng rng(1);
  EXPECT_THROW(rng.categorical({}), PreconditionError);
  EXPECT_THROW(rng.categorical({-1.0, 2.0}), PreconditionError);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), PreconditionError);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(31);
  const auto p = rng.permutation(100);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, PermutationOfZeroAndOne) {
  Rng rng(1);
  EXPECT_TRUE(rng.permutation(0).empty());
  const auto p = rng.permutation(1);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], 0u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  // The child stream should not simply mirror the parent.
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == child.next_u64());
  EXPECT_LT(equal, 2);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformIntAlwaysInRange) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const int v = rng.uniform_int(0, 9);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 9);
  }
}

TEST_P(RngSeedSweep, PermutationValidAcrossSeeds) {
  Rng rng(GetParam());
  const auto p = rng.permutation(17);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 17u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull, 0xFFFFull,
                                           0xDEADBEEFull,
                                           0xFFFFFFFFFFFFFFFFull));

// ---------------------------------------------------------------------------
// RngNormals: Rng::normals against n calls of normal(mean, stddev), and the
// noise kernels' contract, lane check and error budget
// (util/rng_kernels.h).
// ---------------------------------------------------------------------------

std::uint32_t bits_of(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

constexpr float kSentinel = -1234.5f;

/// Draws n normals from copies of `base` through normals() and through n
/// normal(mean, stddev) calls.  Returns the mismatches: the bits of every
/// value, a write past out[n), and the next normal() and next_u64().
int normals_mismatches(const Rng& base, std::size_t n, double mean,
                       double stddev) {
  Rng want = base, got = base;
  std::vector<float> out(n + 1, kSentinel);
  got.normals(out.data(), n, mean, stddev);
  int bad = 0;
  for (std::size_t i = 0; i < n; ++i)
    bad += bits_of(out[i]) !=
           bits_of(static_cast<float>(want.normal(mean, stddev)));
  bad += bits_of(out[n]) != bits_of(kSentinel);
  bad += bits_of(got.normal()) != bits_of(want.normal());
  bad += got.next_u64() != want.next_u64();
  return bad;
}

constexpr std::size_t kLengths[] = {0, 1, 2, 3, 7, 8, 9, 255, 256, 257, 1000};

TEST(RngNormals, MatchesNormalBitsForEveryLengthColdAndWarm) {
  for (const bool warm : {false, true})
    for (const std::size_t n : kLengths)
      for (const std::uint64_t seed : {1u, 2u, 77u}) {
        Rng base(seed);
        if (warm) base.normal();  // leaves a cached second variate
        EXPECT_EQ(normals_mismatches(base, n, 0.0, 0.18), 0)
            << "n=" << n << " seed=" << seed << " warm=" << warm;
      }
}

TEST(RngNormals, UnevenChunksMatchOneCall) {
  constexpr std::size_t kChunks[] = {1, 2, 3, 7, 8, 9, 255, 256, 257, 202};
  std::size_t total = 0;
  for (const std::size_t c : kChunks) total += c;
  for (const bool warm : {false, true}) {
    Rng base(5);
    if (warm) base.normal();
    Rng one = base, chunked = base;
    std::vector<float> a(total), b(total);
    one.normals(a.data(), total, 0.5, 1.5);
    std::size_t at = 0;
    for (const std::size_t c : kChunks) {
      chunked.normals(b.data() + at, c, 0.5, 1.5);
      at += c;
    }
    for (std::size_t i = 0; i < total; ++i)
      ASSERT_EQ(bits_of(a[i]), bits_of(b[i])) << "i=" << i << " warm=" << warm;
    EXPECT_EQ(bits_of(one.normal()), bits_of(chunked.normal()));
    EXPECT_EQ(one.next_u64(), chunked.next_u64());
  }
}

TEST(RngNormals, EdgeParametersMatchNormalBits) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    double mean, stddev;
  } cases[] = {{3.25, 0.5},  {-7.0, 2.0},   {0.0, 0.0},  {1.5, 0.0},
               {-0.0, 0.0},  {0.0, -0.75},  {2.0, -3.0}, {nan, 1.0},
               {0.0, nan},   {1e30, 1e-30}, {0.0, 1e30}, {1e-3, 1e-8}};
  for (const auto& c : cases)
    for (const bool warm : {false, true})
      for (const std::size_t n : {0u, 1u, 2u, 3u, 9u, 257u}) {
        Rng base(31);
        if (warm) base.normal();
        EXPECT_EQ(normals_mismatches(base, n, c.mean, c.stddev), 0)
            << "mean=" << c.mean << " stddev=" << c.stddev << " n=" << n
            << " warm=" << warm;
      }
}

/// Runs `kernel` on the pairs, recomputes its redo lanes through
/// box_muller as Rng::normals does, and counts the outputs whose bits
/// differ from the libm path.  `redo` receives the kernel's redo list.
int kernel_mismatches(rng_kernels::NormalsFn kernel,
                      const std::vector<double>& u1,
                      const std::vector<double>& u2, double mean,
                      double stddev, std::vector<std::uint32_t>* redo) {
  const std::size_t pairs = u1.size();
  std::vector<float> out(2 * pairs + 1, kSentinel);
  redo->assign(2 * pairs, 0);
  redo->resize(kernel(u1.data(), u2.data(), pairs, mean, stddev, out.data(),
                      redo->data()));
  int bad = bits_of(out[2 * pairs]) != bits_of(kSentinel);
  std::vector<bool> redone(2 * pairs, false);
  for (const std::uint32_t j : *redo) {
    bad += j >= 2 * pairs || redone[j];  // in range, listed once
    if (j < 2 * pairs) redone[j] = true;
  }
  for (std::size_t p = 0; p < pairs; ++p) {
    double c = 0.0, s = 0.0;
    rng_kernels::box_muller(u1[p], u2[p], c, s);
    if (!redone[2 * p])
      bad += bits_of(out[2 * p]) != bits_of(static_cast<float>(mean + stddev * c));
    if (!redone[2 * p + 1])
      bad += bits_of(out[2 * p + 1]) !=
             bits_of(static_cast<float>(mean + stddev * s));
  }
  return bad;
}

/// The kernels this machine can run: scalar always, avx2 when usable.
std::vector<rng_kernels::NormalsFn> runnable_kernels() {
  std::vector<rng_kernels::NormalsFn> kernels = {&rng_kernels::normals_scalar};
#if defined(RRP_HAVE_AVX2)
  if (avx2_usable()) kernels.push_back(&rng_kernels::normals_avx2);
#endif
  return kernels;
}

TEST(RngNormals, LaneCheckAtTheEdges) {
  // u1 = 1 (r = 0, so t = mean exactly: +0 at mean 0, whose sign the check
  // must not vouch for), u1 = 2^-53 (the smallest a draw gives, the
  // largest r), and theta = 2 pi u2 at each quadrant boundary k pi / 2
  // and one ulp of u2 either side.
  std::vector<double> u1, u2;
  for (const double a : {1.0, 0x1p-53, 0.5, 1.0 - 0x1p-53, 0.3})
    for (int k = 0; k <= 4; ++k)
      for (const double b : {std::nextafter(k / 4.0, 0.0), k / 4.0,
                             std::nextafter(k / 4.0, 1.0)})
        if (b >= 0.0 && b < 1.0) {
          u1.push_back(a);
          u2.push_back(b);
        }
  ASSERT_NE(u1.size() % 4, 0u) << "exercise the kernel's padded tail too";
  for (const rng_kernels::NormalsFn kernel : runnable_kernels())
    for (const auto& [mean, stddev] :
         {std::pair{0.0, 1.0}, {0.0, 0.18}, {0.25, 0.18}, {-1.0, -2.0}}) {
      std::vector<std::uint32_t> redo;
      EXPECT_EQ(kernel_mismatches(kernel, u1, u2, mean, stddev, &redo), 0)
          << "mean=" << mean << " stddev=" << stddev;
      if (kernel == &rng_kernels::normals_scalar) {
        EXPECT_TRUE(redo.empty());
        continue;
      }
      if (mean != 0.0) continue;
      std::set<std::uint32_t> listed(redo.begin(), redo.end());
      for (std::size_t p = 0; p < u1.size(); ++p)
        if (u1[p] == 1.0) {
          EXPECT_TRUE(listed.count(2 * p)) << "t = +0 accepted, p=" << p;
          EXPECT_TRUE(listed.count(2 * p + 1)) << "t = +0 accepted, p=" << p;
        }
    }
}

TEST(RngNormals, Avx2SweepMatchesLibmAndRarelyFallsBack) {
#if defined(RRP_HAVE_AVX2)
  if (!avx2_usable()) GTEST_SKIP() << "CPU lacks AVX2";
  // >= 10^7 normals over many seeds and the render's noise parameters.
  constexpr std::size_t kPairs = 4096;
  constexpr std::size_t kLanes = 10'000'000;
  const std::pair<double, double> params[] = {
      {0.0, 0.18}, {0.0, 0.288}, {0.5, 1.0}, {-2.0, 0.01}};
  std::vector<double> u1(kPairs), u2(kPairs);
  std::vector<std::uint32_t> redo;
  std::size_t lanes = 0, fallbacks = 0;
  int bad = 0;
  for (std::uint64_t seed = 1; lanes < kLanes; ++seed) {
    Rng rng(seed * 7919);
    for (std::size_t p = 0; p < kPairs; ++p) {
      u1[p] = 1.0 - rng.uniform();
      u2[p] = rng.uniform();
    }
    const auto& [mean, stddev] = params[seed % 4];
    bad += kernel_mismatches(&rng_kernels::normals_avx2, u1, u2, mean, stddev,
                             &redo);
    fallbacks += redo.size();
    lanes += 2 * kPairs;
  }
  const double fraction =
      static_cast<double>(fallbacks) / static_cast<double>(lanes);
  std::printf("[ RngNormals ] avx2 fallback fraction %.3g (%zu of %zu lanes)\n",
              fraction, fallbacks, lanes);
  RecordProperty("fallback_lanes", std::to_string(fallbacks));
  EXPECT_EQ(bad, 0);
  EXPECT_LT(fraction, 1e-3);
#else
  GTEST_SKIP() << "AVX2 kernel not compiled";
#endif
}

TEST(RngNormals, Avx2ErrorIsFarUnderTheLaneBound) {
#if defined(RRP_HAVE_AVX2)
  if (!avx2_usable()) GTEST_SKIP() << "CPU lacks AVX2";
  // Edge pairs (u1 near both ends, theta near every quadrant boundary)
  // plus 2^20 random ones.
  std::vector<double> u1, u2;
  for (const double a : {0x1p-53, 0x1p-40, 0.5, 0.70710678118654752,
                         1.0 - 0x1p-30, 1.0 - 0x1p-53})
    for (int k = 0; k <= 8; ++k)
      for (const double b : {std::nextafter(k / 8.0, 0.0), k / 8.0,
                             std::nextafter(k / 8.0, 1.0)})
        if (b >= 0.0 && b < 1.0) {
          u1.push_back(a);
          u2.push_back(b);
        }
  Rng rng(2024);
  for (int i = 0; i < (1 << 20); ++i) {
    u1.push_back(1.0 - rng.uniform());
    u2.push_back(rng.uniform());
  }
  const std::size_t pairs = u1.size();
  std::vector<double> r(pairs), c(pairs), s(pairs);
  rng_kernels::box_muller_avx2(u1.data(), u2.data(), pairs, r.data(),
                               c.data(), s.data());
  // Errors relative to r, against a long double reference on the same
  // double theta (the lane bound scales the pair error by |stddev| * r).
  double kernel_err = 0.0, libm_err = 0.0;
  for (std::size_t p = 0; p < pairs; ++p) {
    const long double rr = std::sqrt(-2.0L * std::log(static_cast<long double>(u1[p])));
    const long double theta = 2.0 * std::numbers::pi * u2[p];
    const long double rc = rr * std::cos(theta), rs = rr * std::sin(theta);
    double lc = 0.0, ls = 0.0;
    rng_kernels::box_muller(u1[p], u2[p], lc, ls);
    const auto rel = [rr](double v, long double ref) {
      return static_cast<double>(std::fabs(static_cast<long double>(v) - ref) / rr);
    };
    kernel_err = std::max({kernel_err, rel(c[p], rc), rel(s[p], rs),
                           rel(r[p], rr)});
    libm_err = std::max({libm_err, rel(lc, rc), rel(ls, rs)});
  }
  std::printf("[ RngNormals ] worst pair error / r: avx2 kernel %.3g "
              "(2^%.1f), libm %.3g (2^%.1f); bound 2^-40\n",
              kernel_err, std::log2(kernel_err), libm_err,
              std::log2(libm_err));
  // The budget assumes glibc's documented bound; check it holds here.
  EXPECT_LE(libm_err, rng_kernels::kLibmPairError);
  EXPECT_LE(rng_kernels::kLaneHeadroom *
                (kernel_err + rng_kernels::kLibmPairError +
                 rng_kernels::kRoundingError),
            rng_kernels::kLaneRelBound);
#else
  GTEST_SKIP() << "AVX2 kernel not compiled";
#endif
}

}  // namespace
}  // namespace rrp
