#include "speed_probe.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>

namespace perfbench {
namespace {

constexpr int kN = 48;  // 48^3 = 110592 multiply-adds, GEMM-like

struct ProbeData {
  std::array<float, kN * kN> a{}, b{}, c{};
  /// `a` with about half its entries zeroed at pseudo-random positions.
  std::array<float, kN * kN> sparse_a{};
  ProbeData() {
    std::uint32_t x = 12345;
    for (int i = 0; i < kN * kN; ++i) {
      const auto u = static_cast<std::size_t>(i);
      a[u] = static_cast<float>(i % 7) * 0.125f;
      b[u] = static_cast<float>(i % 5) * 0.25f;
      x = x * 1103515245u + 12345u;
      sparse_a[u] = ((x >> 16) & 1u) != 0 ? 0.0f : a[u];
    }
  }
};

/// One row-major GEMM c = a * b; kSkipZeros skips zero a-values by a
/// branch, as rrp's GEMM does on masked weights.
template <bool kSkipZeros>
double kernel_us(const std::array<float, kN * kN>& a, ProbeData& d) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kN; ++i) {
    float* row = d.c.data() + i * kN;
    std::fill(row, row + kN, 0.0f);
    for (int k = 0; k < kN; ++k) {
      const float aik = a[static_cast<std::size_t>(i * kN + k)];
      if (kSkipZeros && aik == 0.0f) continue;
      const float* brow = d.b.data() + k * kN;
      for (int j = 0; j < kN; ++j) row[j] += aik * brow[j];
    }
  }
  // Keep the result observable so the loop is not optimized away.
  asm volatile("" : : "r"(d.c.data()) : "memory");
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

template <bool kSkipZeros>
double median_of_five() {
  static ProbeData data;
  const std::array<float, kN * kN>& a = kSkipZeros ? data.sparse_a : data.a;
  std::array<double, 5> us{};
  for (double& u : us) u = kernel_us<kSkipZeros>(a, data);
  std::nth_element(us.begin(), us.begin() + 2, us.end());
  return us[2];
}

}  // namespace

double probe_us() { return median_of_five<false>(); }

double branchy_probe_us() { return median_of_five<true>(); }

}  // namespace perfbench
