#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "util/checks.h"
#include "util/rng.h"

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

}  // namespace
}  // namespace rrp
