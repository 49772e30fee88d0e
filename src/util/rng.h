// rng.h — deterministic pseudo-random number generation.
//
// Every stochastic component in the library (weight init, synthetic data,
// scenario generation) takes an explicit Rng so that experiments are
// bit-reproducible across runs and platforms.  The generator is
// xoshiro256**, seeded via splitmix64, which is fast, high quality and
// trivially portable (no <random> engine-implementation divergence).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rrp {

/// Deterministic 64-bit PRNG (xoshiro256**), explicit-seed only.
class Rng {
 public:
  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, n). Precondition: n > 0.
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int uniform_int(int lo, int hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box–Muller (cached second variate).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// n float-rounded normals: out[i] holds, bit for bit,
  /// static_cast<float>(normal(mean, stddev)) of the i-th of n such calls,
  /// and the generator (state and cached variate) ends as those calls
  /// leave it.  Pairs run through the AVX2 noise kernel when RRP_SIMD is on
  /// and the CPU has AVX2 (util/rng_kernels.h); touches no heap.
  void normals(float* out, std::size_t n, double mean, double stddev);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p);

  /// Returns an index in [0, weights.size()) with probability proportional
  /// to weights[i]. Precondition: weights non-empty, all >= 0, sum > 0.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher–Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derives an independent child generator; stable given the call sequence.
  Rng fork();

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace rrp
