#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/checks.h"
#include "util/cpu.h"
#include "util/rng_kernels.h"

namespace rrp {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  RRP_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

int Rng::uniform_int(int lo, int hi) {
  RRP_CHECK(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(hi) - lo) + 1;
  // Sum in 64 bits: the offset can exceed INT_MAX when the span does.
  return static_cast<int>(lo + static_cast<std::int64_t>(uniform_u64(span)));
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] to keep log finite.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  double c = 0.0;
  rng_kernels::box_muller(u1, u2, c, cached_normal_);
  has_cached_normal_ = true;
  return c;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

// rrp-frame-path: the batched normal draw render_into takes its noise from.
void Rng::normals(float* out, std::size_t n, double mean, double stddev) {
  // Pairs per kernel call: the uniforms and redo list live on the stack.
  constexpr std::size_t kBlockPairs = 128;
  std::size_t i = 0;
  if (n > 0 && has_cached_normal_)
    out[i++] = static_cast<float>(normal(mean, stddev));
  double u1[kBlockPairs], u2[kBlockPairs];
  std::uint32_t redo[2 * kBlockPairs];
  while (n - i >= 2) {
    const std::size_t pairs = std::min((n - i) / 2, kBlockPairs);
    for (std::size_t p = 0; p < pairs; ++p) {
      u1[p] = 1.0 - uniform();  // the order normal() draws them in
      u2[p] = uniform();
    }
    float* block = out + i;
#if defined(RRP_HAVE_AVX2)
    const std::size_t redos =
        rng_kernels::avx2_active()
            ? rng_kernels::normals_avx2(u1, u2, pairs, mean, stddev, block,
                                         redo)
             : rng_kernels::normals_scalar(u1, u2, pairs, mean, stddev,
                                           block, redo);
#else
    const std::size_t redos = rng_kernels::normals_scalar(
        u1, u2, pairs, mean, stddev, block, redo);
#endif
    for (std::size_t k = 0; k < redos; ++k) {
      const std::uint32_t j = redo[k];
      double c = 0.0, s = 0.0;
      rng_kernels::box_muller(u1[j / 2], u2[j / 2], c, s);
      block[j] = static_cast<float>(mean + stddev * (j % 2 == 0 ? c : s));
    }
    i += 2 * pairs;
  }
  // An odd last draw leaves its pair's second variate cached.
  if (i < n) out[i] = static_cast<float>(normal(mean, stddev));
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::categorical(const std::vector<double>& weights) {
  RRP_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    RRP_CHECK_MSG(w >= 0.0, "negative categorical weight " << w);
    total += w;
  }
  RRP_CHECK(total > 0.0);
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point edge: land on the last bucket
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::size_t j = uniform_u64(i);
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

Rng Rng::fork() { return Rng(next_u64() ^ 0xA5A5A5A55A5A5A5Aull); }

namespace rng_kernels {

void box_muller(double u1, double u2, double& c, double& s) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  s = r * std::sin(theta);
  c = r * std::cos(theta);
}

// rrp-frame-path: the scalar noise kernel (rng_kernels.h contract).
std::size_t normals_scalar(const double* u1, const double* u2,
                           std::size_t pairs, double mean, double stddev,
                           float* out, std::uint32_t* /*redo*/) {
  for (std::size_t p = 0; p < pairs; ++p) {
    double c = 0.0, s = 0.0;
    box_muller(u1[p], u2[p], c, s);
    out[2 * p] = static_cast<float>(mean + stddev * c);
    out[2 * p + 1] = static_cast<float>(mean + stddev * s);
  }
  return 0;
}

bool avx2_active() {
#if defined(RRP_SIMD)
  static const bool active = avx2_usable();
  return active;
#else
  return false;
#endif
}

}  // namespace rng_kernels

}  // namespace rrp
