// test_fast_path.cpp — the sparsity-realizing fast path: the
// CompactedLadderProvider (provisioned compacted-network ladder + masked
// golden arm), the CompactedLadderView level cursor over its ladder, and
// the GEMM micro-kernel variants behind nn/gemm.cpp.
//
// Seeded randomized property sweep in the test_mask_properties.cpp style
// (~100 configurations from one fixed seed, arch x ladder x net seed):
//
//   F1  compacted ≡ masked — at every ladder level the active compacted
//       network's forward matches the masked golden network (and the
//       provider's synced masked arm) within the DESIGN.md invariant-13
//       tolerance, including Residual nets whose identity shortcut pins
//       channel widths; a view agrees bit-exactly, the precomputed MACs
//       match the active network and shrink per level, the ladder's
//       resident bytes sit between one and level_count copies, and an
//       unstructured library is rejected;
//   F2  ladder-swap-then-restore round trip — any level walk on the fast
//       path, synced to the masked arm and restored, leaves every golden
//       parameter bit-exact;
//   F3  O(1) level swap — switching levels performs no rebuild and no
//       weight copy on the frame path: rebuild/byte counters stay flat
//       and parameter storage addresses are stable across swaps;
//   F4  kernel variants are bit-identical — reference / blocked / avx2
//       produce byte-equal C for any row partition, and the public gemm
//       entry points are bit-exact across thread counts (1/2/8);
//   F5  fused steps are exact — on every zoo model, the planned
//       infer_into (BatchNorm and ReLU folded into the conv store, ReLU
//       into the Linear store) equals
//       the unfused layer chain bit for bit at every level, through a
//       ladder view and the masked arm, along a level walk and after a
//       weight bit flip.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/reversible_pruner.h"
#include "models/zoo.h"
#include "nn/gemm.h"
#include "nn/gemm_kernels.h"
#include "prune/levels.h"
#include "test_support.h"
#include "util/checks.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rrp::core {
namespace {

using rrp::testing::random_tensor;
using rrp::testing::tiny_bn_net;
using rrp::testing::tiny_conv_net;
using rrp::testing::tiny_input_shape;
using rrp::testing::tiny_residual_net;

/// One randomly drawn configuration.  The ladder is always structured:
/// the compacted fast path is only defined for channel pruning.
struct Config {
  int net_kind = 0;  // 0 conv, 1 bn, 2 residual
  std::uint64_t net_seed = 0;
  std::vector<double> ratios;
};

Config draw_config(Rng& rng) {
  Config c;
  c.net_kind = rng.uniform_int(0, 2);
  c.net_seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
  // Strictly increasing ladder starting at 0, 2–4 pruned levels, capped
  // below 0.9 so every layer keeps >= 1 channel.
  const int pruned_levels = rng.uniform_int(2, 4);
  double r = 0.0;
  c.ratios.push_back(0.0);
  for (int k = 0; k < pruned_levels; ++k) {
    r += 0.05 + (0.85 - r) * rng.uniform() * 0.45;
    c.ratios.push_back(r);
  }
  return c;
}

nn::Network make_net(const Config& c) {
  switch (c.net_kind) {
    case 0: return tiny_conv_net(c.net_seed);
    case 1: return tiny_bn_net(c.net_seed);
    default: return tiny_residual_net(c.net_seed);
  }
}

std::string describe(const Config& c, int idx) {
  std::string s = "config " + std::to_string(idx) +
                  " kind=" + std::to_string(c.net_kind) +
                  " seed=" + std::to_string(c.net_seed) + " ratios=";
  for (double r : c.ratios) s += std::to_string(r) + ",";
  return s;
}

constexpr int kConfigs = 100;
constexpr std::uint64_t kSweepSeed = 0xFA57FA57ull;

/// Forward-equivalence tolerance of DESIGN.md invariant 13: the compacted
/// gather reorders no surviving arithmetic, so only BN folding noise at
/// the 1e-4 scale is admissible.
constexpr float kEquivTolerance = 1e-4f;

TEST(FastPath, CompactedMatchesMaskedAtEveryLevel) {
  Rng rng(kSweepSeed);
  for (int i = 0; i < kConfigs; ++i) {
    const Config c = draw_config(rng);
    nn::Network net = make_net(c);
    prune::PruneLevelLibrary lib = prune::PruneLevelLibrary::build_structured(
        net, c.ratios, tiny_input_shape());
    std::vector<prune::NetworkMask> masks;
    for (int k = 0; k < lib.level_count(); ++k) masks.push_back(lib.mask(k));
    // The compacted ladder is only defined for channel pruning.
    EXPECT_THROW(CompactedLadderProvider(
                     net,
                     prune::PruneLevelLibrary::build_unstructured(net,
                                                                  c.ratios),
                     tiny_input_shape()),
                 PreconditionError)
        << describe(c, i);

    CompactedLadderProvider fast(net, std::move(lib), tiny_input_shape());
    CompactedLadderView view(fast);
    // All levels resident: more than one copy of the network, less than
    // one per level; the provider adds its masked arm, a view adds nothing.
    const std::int64_t one = net.param_count() * 4;
    EXPECT_GT(fast.ladder().weight_bytes, one) << describe(c, i);
    EXPECT_LT(fast.ladder().weight_bytes, one * fast.level_count())
        << describe(c, i);
    EXPECT_EQ(fast.resident_weight_bytes(),
              fast.masked().resident_weight_bytes() +
                  fast.ladder().weight_bytes);
    EXPECT_EQ(view.resident_weight_bytes(), fast.ladder().weight_bytes);

    const nn::Tensor x = random_tensor({2, 1, 8, 8}, c.net_seed + 1);
    std::vector<std::int64_t> level_macs;
    for (int k = 0; k < fast.level_count(); ++k) {
      fast.set_level(k);
      view.set_level(k);
      const nn::Tensor yc = fast.infer(x);
      EXPECT_TRUE(view.infer(x).equals(yc)) << describe(c, i) << " level " << k;
      // The precomputed MACs are the active network's.
      const std::int64_t macs = fast.network_at(k).macs(tiny_input_shape());
      EXPECT_EQ(fast.active_macs(tiny_input_shape()), macs)
          << describe(c, i) << " level " << k;
      EXPECT_EQ(view.active_macs(tiny_input_shape()), macs)
          << describe(c, i) << " level " << k;
      level_macs.push_back(macs);
      // Masked reference: a fresh clone of `net` (golden, or the masked
      // arm's previous level) with this level's mask applied.
      nn::Network masked = net.clone();
      masks[static_cast<std::size_t>(k)].apply(masked);
      const nn::Tensor ym = masked.forward(x, false);
      ASSERT_EQ(ym.shape(), yc.shape()) << describe(c, i) << " level " << k;
      EXPECT_LT(ym.max_abs_diff(yc), kEquivTolerance)
          << describe(c, i) << " level " << k;
      // The provider's own masked golden arm, once synced, agrees too.
      fast.sync_masked();
      EXPECT_LT(fast.masked().infer(x).max_abs_diff(yc), kEquivTolerance)
          << describe(c, i) << " level " << k;
      if (c.net_kind == 2) {
        // Residual identity shortcut pins the block output width: the
        // compacted clone must keep it at full width at EVERY level.
        auto* conv2 = dynamic_cast<nn::Conv2D*>(
            fast.network_at(k).find("block.conv2"));
        ASSERT_NE(conv2, nullptr) << describe(c, i);
        EXPECT_EQ(conv2->out_channels(), 6)
            << describe(c, i) << " level " << k;
      }
    }
    // MACs shrink physically down the ladder: never up, and strictly at
    // the deepest level (adjacent ratios may round to equal widths).
    for (std::size_t k = 1; k < level_macs.size(); ++k)
      EXPECT_LE(level_macs[k], level_macs[k - 1])
          << describe(c, i) << " level " << k;
    EXPECT_LT(level_macs.back(), level_macs.front()) << describe(c, i);
  }
}

TEST(FastPath, LadderSwapThenRestoreRoundTripIsBitExact) {
  Rng rng(kSweepSeed + 1);
  for (int i = 0; i < kConfigs; ++i) {
    const Config c = draw_config(rng);
    nn::Network net = make_net(c);
    std::vector<nn::Tensor> golden;
    for (auto& p : net.params()) golden.push_back(*p.value);

    {
      CompactedLadderProvider fast(
          net,
          prune::PruneLevelLibrary::build_structured(net, c.ratios,
                                                     tiny_input_shape()),
          tiny_input_shape());
      const int walk_len = rng.uniform_int(3, 10);
      for (int s = 0; s < walk_len; ++s) {
        fast.set_level(rng.uniform_int(0, fast.level_count() - 1));
        // Occasionally align the masked golden arm mid-walk, as the
        // runner does on the scrub cadence.
        if (rng.uniform_int(0, 2) == 0) fast.sync_masked();
      }
      fast.sync_masked();
      fast.masked().restore_full();
      auto after = net.params();
      for (std::size_t p = 0; p < after.size(); ++p)
        EXPECT_TRUE(after[p].value->equals(golden[p]))
            << describe(c, i) << " param " << after[p].name;
    }
    // Provider destruction must also leave the net as found, even after
    // a walk that never synced (the masked arm restores level 0).
    auto after = net.params();
    for (std::size_t p = 0; p < after.size(); ++p)
      EXPECT_TRUE(after[p].value->equals(golden[p]))
          << describe(c, i) << " param " << after[p].name << " post-dtor";
  }
}

TEST(FastPath, LevelSwapIsO1OnTheFramePath) {
  nn::Network net = tiny_conv_net(33);
  CompactedLadderProvider fast(
      net,
      prune::PruneLevelLibrary::build_structured(net, {0.0, 0.3, 0.6, 0.8},
                                                 tiny_input_shape()),
      tiny_input_shape());

  // Parameter storage addresses of every ladder network, pre-walk.
  std::vector<const float*> addrs;
  for (int k = 0; k < fast.level_count(); ++k)
    for (auto& p : fast.network_at(k).params())
      addrs.push_back(p.value->data().data());

  metrics::Counter& rebuilds = metrics::counter("prune.ladder_rebuilds");
  metrics::Counter& bytes = metrics::counter("prune.bytes_touched");
  metrics::Counter& swaps = metrics::counter("prune.ladder_swaps");
  const std::int64_t rebuilds0 = rebuilds.value();
  const std::int64_t bytes0 = bytes.value();
  const std::int64_t swaps0 = swaps.value();

  const nn::Tensor x = random_tensor({1, 1, 8, 8}, 34);
  Rng rng(35);
  int level_changes = 0;
  int level = fast.current_level();
  for (int s = 0; s < 50; ++s) {
    const int to = rng.uniform_int(0, fast.level_count() - 1);
    const TransitionStats st = fast.set_level(to);
    EXPECT_EQ(st.elements_changed, 0) << "swap " << s;
    EXPECT_EQ(st.bytes_written, 0) << "swap " << s;
    EXPECT_EQ(fast.current_level(), to) << "swap " << s;
    if (to != level) ++level_changes;
    level = to;
    fast.infer(x);
  }

  // No rebuild, no weight copy: the counters are flat and every ladder
  // parameter still lives at its original address.
  EXPECT_EQ(rebuilds.value(), rebuilds0);
  EXPECT_EQ(bytes.value(), bytes0);
  EXPECT_EQ(swaps.value(), swaps0 + level_changes);
  std::size_t a = 0;
  for (int k = 0; k < fast.level_count(); ++k)
    for (auto& p : fast.network_at(k).params())
      EXPECT_EQ(addrs[a++], p.value->data().data())
          << "level " << k << " param " << p.name;
}

// Two serve streams alias ONE shared provider through per-stream views.
// A view's level swap must never be observable from any other view: not
// in its level index, not in the physical network it resolves to, and
// not in its inference output.  This is the isolation contract the
// serving engine's fan-out relies on (DESIGN.md invariant 16).
TEST(FastPath, SharedLadderViewsAliasWithoutInterference) {
  nn::Network net = tiny_conv_net(36);
  CompactedLadderProvider shared(
      net,
      prune::PruneLevelLibrary::build_structured(net, {0.0, 0.3, 0.6, 0.8},
                                                 tiny_input_shape()),
      tiny_input_shape());

  CompactedLadderView a(shared, 0);
  CompactedLadderView b(shared, 2);
  EXPECT_EQ(a.current_level(), 0);
  EXPECT_EQ(b.current_level(), 2);
  EXPECT_EQ(a.level_count(), shared.level_count());

  // Both views resolve to the shared, pre-compacted ladder networks.
  EXPECT_EQ(&a.active_network(), &shared.network_at(0));
  EXPECT_EQ(&b.active_network(), &shared.network_at(2));
  EXPECT_EQ(a.resident_weight_bytes(), b.resident_weight_bytes())
      << "views must report the shared footprint, not a private copy";

  const nn::Tensor x = random_tensor({1, 1, 8, 8}, 37);
  const nn::Tensor a_ref = a.infer(x);
  const nn::Tensor b_ref = b.infer(x);

  // Walk view `a` across every level; view `b` must be inert throughout.
  Rng rng(38);
  for (int s = 0; s < 32; ++s) {
    const TransitionStats st =
        a.set_level(rng.uniform_int(0, shared.level_count() - 1));
    EXPECT_EQ(st.elements_changed, 0) << "swap " << s;
    EXPECT_EQ(st.bytes_written, 0) << "swap " << s;
    EXPECT_EQ(b.current_level(), 2) << "swap " << s;
    EXPECT_EQ(&b.active_network(), &shared.network_at(2)) << "swap " << s;
    EXPECT_TRUE(b.infer(x).equals(b_ref)) << "swap " << s;
  }

  // And symmetrically: b's swaps never disturb a.
  a.set_level(0);
  b.set_level(3);
  EXPECT_EQ(a.current_level(), 0);
  EXPECT_EQ(&a.active_network(), &shared.network_at(0));
  EXPECT_TRUE(a.infer(x).equals(a_ref));

  // Two views at the SAME level share the same physical network: the
  // whole point of the view layer is that N streams cost one ladder.
  b.set_level(0);
  EXPECT_EQ(&a.active_network(), &b.active_network());
  EXPECT_TRUE(b.infer(x).equals(a_ref));
  // The shared provider's own cursor was never touched by any view.
  EXPECT_EQ(shared.current_level(), 0);
}

// A view points at the ladder, not at the provider object: moving the
// owner (as make_fast_provider's callers do) must leave every view
// working, bit-identically, at every level.
TEST(FastPath, ViewSurvivesOwnerMove) {
  nn::Network net = tiny_bn_net(39);
  CompactedLadderProvider owner(
      net,
      prune::PruneLevelLibrary::build_structured(net, {0.0, 0.3, 0.6, 0.8},
                                                 tiny_input_shape()),
      tiny_input_shape());
  CompactedLadderView view(owner, 1);
  const nn::Tensor x = random_tensor({1, 1, 8, 8}, 40);
  std::vector<nn::Tensor> before;
  for (int k = 0; k < view.level_count(); ++k) {
    view.set_level(k);
    before.push_back(view.infer(x));
  }

  CompactedLadderProvider moved(std::move(owner));
  ASSERT_EQ(view.level_count(), moved.level_count());
  for (int k = view.level_count() - 1; k >= 0; --k) {
    view.set_level(k);
    EXPECT_EQ(&view.active_network(), &moved.network_at(k)) << "level " << k;
    EXPECT_TRUE(view.infer(x).equals(before[static_cast<std::size_t>(k)]))
        << "level " << k;
  }
}

// ---------------------------------------------------------------------------
// F4: micro-kernel bit-exactness.
// ---------------------------------------------------------------------------

/// Odd sizes exercise every register-tile and vector-lane tail path.
constexpr std::int64_t kM = 13, kN = 37, kK = 29;

struct KernelShape {
  std::int64_t m, n, k;
};

/// Micro-kernel shapes: N = 37 (32-block + scalar tail), 45 (32 + 8 +
/// scalar), 64 and 256 (whole 32-blocks); K = 9, 288 and 300 (300 crosses
/// the AVX2 kernel's 256-deep K block); odd M leaves a single-row tile.
/// Then the conv GEMMs [out_ch, oh*ow, in_ch*9] of the detnet L0 / L4 and
/// lenet L0 ladders on the 16x16 zoo input.
const KernelShape kKernelShapes[] = {
    // tails and K blocks
    {kM, kN, kK}, {13, 45, 9}, {9, 64, 288}, {7, 256, 300}, {11, 37, 300},
    {5, 45, 288}, {1, 64, 9},
    // detnet L0
    {16, 256, 9}, {32, 256, 144}, {32, 64, 288}, {64, 64, 288},
    // detnet L4
    {3, 256, 9}, {5, 256, 27}, {5, 64, 45}, {10, 64, 45},
    // lenet L0
    {8, 256, 9}, {16, 64, 72},
};

std::vector<float> random_matrix(std::int64_t elems, std::uint64_t seed,
                                 double zero_frac) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(elems));
  for (float& x : v)
    x = rng.uniform() < zero_frac
            ? 0.0f
            : static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Bitwise equality: -0 differs from +0 and NaNs compare by payload.
void expect_bits_equal(const std::vector<float>& want,
                       const std::vector<float>& got, const char* label) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want[i]),
              std::bit_cast<std::uint32_t>(got[i]))
        << label << " element " << i << ": " << want[i] << " vs " << got[i];
}

TEST(FastPath, KernelVariantsAreBitIdentical) {
  for (const KernelShape& s : kKernelShapes) {
    const std::string shape = "M=" + std::to_string(s.m) +
                              " N=" + std::to_string(s.n) +
                              " K=" + std::to_string(s.k) + " ";
    // ~30% zeros in A exercises the zero-skip short-circuit every variant
    // must share for masked-sparsity bit-exactness.
    const std::vector<float> a = random_matrix(s.m * s.k, 40, 0.3);
    const std::vector<float> at = random_matrix(s.k * s.m, 41, 0.3);
    const std::vector<float> b = random_matrix(s.k * s.n, 42, 0.0);
    const std::vector<float> c0 = random_matrix(s.m * s.n, 43, 0.0);

    for (float alpha : {1.0f, 1.3f}) {
      for (float beta : {0.0f, 1.0f, 0.5f}) {
        const std::string tag = shape + "alpha=" + std::to_string(alpha) +
                                " beta=" + std::to_string(beta);
        std::vector<float> ref = c0, blk = c0;
        nn::kernels::gemm_rows_reference(0, s.m, s.n, s.k, alpha, a.data(),
                                         s.k, b.data(), s.n, beta, ref.data(),
                                         s.n);
        nn::kernels::gemm_rows_blocked(0, s.m, s.n, s.k, alpha, a.data(), s.k,
                                       b.data(), s.n, beta, blk.data(), s.n);
        expect_bits_equal(ref, blk, (tag + " blocked").c_str());

        std::vector<float> ref_at = c0, blk_at = c0;
        nn::kernels::gemm_at_rows_reference(0, s.m, s.n, s.k, alpha,
                                            at.data(), s.m, b.data(), s.n,
                                            beta, ref_at.data(), s.n);
        nn::kernels::gemm_at_rows_blocked(0, s.m, s.n, s.k, alpha, at.data(),
                                          s.m, b.data(), s.n, beta,
                                          blk_at.data(), s.n);
        expect_bits_equal(ref_at, blk_at, (tag + " blocked_at").c_str());

#if defined(RRP_HAVE_AVX2)
        if (nn::kernels::avx2_usable()) {
          std::vector<float> vec = c0, vec_at = c0;
          nn::kernels::gemm_rows_avx2(0, s.m, s.n, s.k, alpha, a.data(), s.k,
                                      b.data(), s.n, beta, vec.data(), s.n);
          expect_bits_equal(ref, vec, (tag + " avx2").c_str());
          nn::kernels::gemm_at_rows_avx2(0, s.m, s.n, s.k, alpha, at.data(),
                                         s.m, b.data(), s.n, beta,
                                         vec_at.data(), s.n);
          expect_bits_equal(ref_at, vec_at, (tag + " avx2_at").c_str());
        }
#endif
      }
    }
  }
}

TEST(FastPath, KernelsAreRowPartitionInvariant) {
  // The pool splits GEMM over row ranges; any partition must be invisible
  // in the result.  Also covers the active dispatch against the oracle.
  const std::vector<float> a = random_matrix(kM * kK, 44, 0.3);
  const std::vector<float> b = random_matrix(kK * kN, 45, 0.0);
  const std::vector<float> c0 = random_matrix(kM * kN, 46, 0.0);

  std::vector<float> whole = c0;
  nn::kernels::gemm_rows_reference(0, kM, kN, kK, 1.1f, a.data(), kK,
                                   b.data(), kN, 0.5f, whole.data(), kN);

  std::vector<nn::kernels::GemmRowsFn> fns = {
      nn::kernels::gemm_rows_reference,
      nn::kernels::gemm_rows_blocked,
      nn::kernels::active_gemm_rows(),
  };
#if defined(RRP_HAVE_AVX2)
  if (nn::kernels::avx2_usable()) fns.push_back(nn::kernels::gemm_rows_avx2);
#endif
  // The cut at 1 splits the first register tile of every tiled variant
  // (rows 0-1 of the AVX2 kernel, rows 0-3 of the blocked one); 3 and 9
  // split tiles that start at an even row.
  const std::int64_t cuts[] = {0, 1, 3, 4, 9, kM};
  for (const auto fn : fns) {
    std::vector<float> split = c0;
    for (std::size_t s = 0; s + 1 < std::size(cuts); ++s)
      fn(cuts[s], cuts[s + 1], kN, kK, 1.1f, a.data(), kK, b.data(), kN,
         0.5f, split.data(), kN);
    expect_bits_equal(whole, split, "row partition");
  }
}

TEST(FastPath, PublicGemmIsBitExactAcrossThreadCounts) {
  // Larger shapes so parallel_for actually fans out.
  const std::int64_t m = 96, n = 80, k = 72;
  const std::vector<float> a = random_matrix(m * k, 47, 0.3);
  const std::vector<float> at = random_matrix(k * m, 48, 0.3);
  const std::vector<float> bt = random_matrix(n * k, 49, 0.0);
  const std::vector<float> b = random_matrix(k * n, 50, 0.0);
  const std::vector<float> c0 = random_matrix(m * n, 51, 0.0);

  std::vector<std::vector<float>> gemm_out, at_out, bt_out;
  for (int threads : {1, 2, 8}) {
    ThreadCountGuard guard(threads);
    std::vector<float> c1 = c0, c2 = c0, c3 = c0;
    nn::gemm(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.25f, c1.data(), n);
    nn::gemm_at(m, n, k, 1.0f, at.data(), m, b.data(), n, 0.25f, c2.data(),
                n);
    nn::gemm_bt(m, n, k, 1.0f, a.data(), k, bt.data(), k, 0.25f, c3.data(),
                n);
    gemm_out.push_back(std::move(c1));
    at_out.push_back(std::move(c2));
    bt_out.push_back(std::move(c3));
  }
  for (std::size_t t = 1; t < gemm_out.size(); ++t) {
    expect_bits_equal(gemm_out[0], gemm_out[t], "gemm threads");
    expect_bits_equal(at_out[0], at_out[t], "gemm_at threads");
    expect_bits_equal(bt_out[0], bt_out[t], "gemm_bt threads");
  }
}

TEST(FastPath, ActiveDispatchIsCoherent) {
  const std::string v = nn::kernels::active_variant();
  EXPECT_TRUE(v == "scalar" || v == "blocked" || v == "avx2") << v;
  if (v == "avx2") {
    EXPECT_TRUE(nn::kernels::avx2_usable());
  }
  EXPECT_NE(nn::kernels::active_gemm_rows(), nullptr);
  EXPECT_NE(nn::kernels::active_gemm_at_rows(), nullptr);
}

// ---------------------------------------------------------------------------
// F5: fused conv steps
// ---------------------------------------------------------------------------

/// Flips bit 30 (the exponent's top bit) of the first nonzero weight of
/// the first Conv2D in `net`; flipping again restores it.
void flip_conv_weight(nn::Network& net) {
  for (nn::Layer* l : net.leaf_layers()) {
    if (l->kind() != nn::LayerKind::Conv2D) continue;
    for (float& w : static_cast<nn::Conv2D*>(l)->weight().data()) {
      if (w == 0.0f) continue;
      w = std::bit_cast<float>(std::bit_cast<std::uint32_t>(w) ^ (1u << 30));
      return;
    }
  }
}

TEST(FastPath, FusedConvStepsEqualTheUnfusedChainOnEveryZooModel) {
  const std::vector<double> ratios = {0.0, 0.3, 0.5, 0.7, 0.85};
  const std::vector<int> walk = {0, 3, 1, 4, 2, 4, 0};
  const nn::Shape shape = models::zoo_input_shape();
  for (const models::ModelKind kind : models::all_model_kinds()) {
    const std::string model = models::model_kind_name(kind);
    Rng rng(static_cast<std::uint64_t>(kind) + 900);
    nn::Network net = models::build_model(kind, rng);
    // Non-trivial BatchNorm statistics, so the folded affine matters.
    std::uint64_t seed = 1;
    for (nn::Layer* l : net.leaf_layers()) {
      if (l->kind() != nn::LayerKind::BatchNorm) continue;
      auto& bn = static_cast<nn::BatchNorm&>(*l);
      const nn::Shape c{bn.channels()};
      bn.gamma() = random_tensor(c, ++seed);
      bn.beta() = random_tensor(c, ++seed);
      bn.running_mean() = random_tensor(c, ++seed);
      bn.running_var() = random_tensor(c, ++seed);
      for (float& v : bn.running_var().data()) v = 0.5f + std::abs(v);
    }
    // Conv steps fuse exactly on the models with convs; a Linear step
    // fuses its ReLU on any model (checked by the output compares below).
    bool conv_fused = false;
    for (const nn::InferStep& st : nn::plan_inference(net, shape).steps)
      if (st.layer != nullptr && st.layer->kind() == nn::LayerKind::Conv2D)
        conv_fused = conv_fused || st.fused.bn != nullptr || st.fused.relu;
    const bool has_conv = net.find("conv1") != nullptr ||
                          net.find("stem") != nullptr;
    EXPECT_EQ(conv_fused, has_conv) << model;

    CompactedLadderProvider fast(net,
                                 prune::PruneLevelLibrary::build_structured(
                                     net, ratios, shape,
                                     prune::ImportanceMetric::L1, 2),
                                 shape);
    CompactedLadderView view(fast);
    ReversiblePruner& masked = fast.masked();
    const nn::Tensor x = random_tensor(shape, 77);
    nn::Tensor out;
    const auto check = [&](int k, const std::string& when) {
      const std::string what = model + " L" + std::to_string(k) + " " + when;
      view.infer_into(x, out);
      EXPECT_EQ(testing::float_bits(out.data()),
                testing::float_bits(fast.network_at(k).forward(x, false).data()))
          << "view " << what;
      masked.infer_into(x, out);
      EXPECT_EQ(testing::float_bits(out.data()),
                testing::float_bits(masked.network().forward(x, false).data()))
          << "masked " << what;
    };
    for (const int k : walk) {
      view.set_level(k);
      masked.set_level(k);
      check(k, "walk");
    }
    const int k = walk.back();
    flip_conv_weight(fast.network_at(k));
    flip_conv_weight(masked.network());
    check(k, "bit flip");
    flip_conv_weight(fast.network_at(k));
    flip_conv_weight(masked.network());
    check(k, "restored");
  }
}

}  // namespace
}  // namespace rrp::core
