// test_integrity.cpp — digests, scrub detection parity, and O(Δ) self-heal.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/integrity.h"
#include "core/reversible_pruner.h"
#include "test_support.h"
#include "util/checks.h"

namespace rrp::core {
namespace {

using rrp::testing::tiny_conv_net;

std::uint32_t bits_of(float v) {
  std::uint32_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

float from_bits(std::uint32_t u) {
  float v = 0.0f;
  std::memcpy(&v, &u, sizeof v);
  return v;
}

void flip(float* slot, int bit) {
  *slot = from_bits(bits_of(*slot) ^ (1u << bit));
}

nn::Tensor ramp_tensor(std::int64_t n) {
  nn::Tensor t(nn::Shape{static_cast<int>(n)});
  for (std::int64_t i = 0; i < n; ++i)
    t.raw()[i] = 0.25f * static_cast<float>(i) - 1.0f;
  return t;
}

/// The scrub's element compare as a plain scalar loop: the reference the
/// branch-free diverged_count / first_divergence must match.
struct ReferenceCompare {
  std::int64_t diverged = 0;
  std::int64_t first = -1;
};

ReferenceCompare reference_compare(const float* live, const float* gold,
                                   const std::uint8_t* keep, std::int64_t n) {
  ReferenceCompare out;
  for (std::int64_t i = 0; i < n; ++i) {
    const float expect = (keep != nullptr && !keep[i]) ? 0.0f : gold[i];
    if (bits_of(live[i]) != bits_of(expect)) {
      if (out.first < 0) out.first = i;
      ++out.diverged;
    }
  }
  return out;
}

TEST(IntegrityDigest, Fnv1a64MatchesStandardVectors) {
  EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

// Every single-bit flip of every element changes the digest, across lane
// (4 words), word (2 floats) and tail (odd numel) boundaries.
TEST(IntegrityDigest, EverySingleBitFlipChangesTensorDigest) {
  for (const std::int64_t n : {1, 2, 3, 4, 5, 7, 8, 9, 33}) {
    nn::Tensor t = ramp_tensor(n);
    const std::uint64_t clean = tensor_digest(t);
    for (std::int64_t i = 0; i < n; ++i) {
      for (int bit = 0; bit < 32; ++bit) {
        flip(t.raw() + i, bit);
        EXPECT_NE(tensor_digest(t), clean)
            << "numel " << n << " element " << i << " bit " << bit;
        flip(t.raw() + i, bit);
      }
    }
    EXPECT_EQ(tensor_digest(t), clean);
  }
}

// Byte lengths 0..17 cover every tail size; a flip in any tail byte is
// seen, and a payload never collides with itself plus zero padding.
TEST(IntegrityDigest, WordDigestCoversTailBytesAndLength) {
  std::vector<unsigned char> buf(17);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<unsigned char>(3 * i + 1);
  for (std::size_t bytes = 0; bytes < buf.size(); ++bytes) {
    const std::uint64_t clean = word_digest(buf.data(), bytes);
    for (std::size_t i = 0; i < bytes; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        buf[i] ^= static_cast<unsigned char>(1u << bit);
        EXPECT_NE(word_digest(buf.data(), bytes), clean)
            << "bytes " << bytes << " byte " << i << " bit " << bit;
        buf[i] ^= static_cast<unsigned char>(1u << bit);
      }
    }
  }
  const unsigned char padded[8] = {7, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t bytes = 1; bytes < 8; ++bytes)
    EXPECT_NE(word_digest(padded, bytes), word_digest(padded, bytes + 1));
  EXPECT_NE(word_digest(padded, 0), word_digest(padded, 1));
}

TEST(IntegrityDigest, CrossLaneSwapIsDetected) {
  // Floats 2w and 2w+1 share word w, which feeds lane w mod 4.
  const nn::Tensor t = ramp_tensor(16);
  const std::uint64_t clean = tensor_digest(t);
  for (const auto& [a, b] : std::vector<std::pair<int, int>>{
           {0, 2}, {0, 4}, {0, 6}, {1, 3}, {1, 7}, {3, 5}, {2, 15}, {9, 14}}) {
    nn::Tensor swapped = t;
    std::swap(swapped.raw()[a], swapped.raw()[b]);
    EXPECT_NE(tensor_digest(swapped), clean) << "swap " << a << "<->" << b;
  }
}

// Random golden data with signed zeros and NaNs, random keep bytes (any
// nonzero byte keeps), then injected divergences of every awkward kind.
TEST(IntegrityCompare, BranchFreeCompareMatchesScalarReference) {
  Rng rng(2024);
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  for (const std::int64_t n : {0, 1, 2, 3, 7, 31, 33, 257}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<float> gold(static_cast<std::size_t>(n));
      std::vector<std::uint8_t> keep(gold.size());
      for (std::size_t i = 0; i < gold.size(); ++i) {
        const std::uint64_t kind = rng.uniform_u64(8);
        gold[i] = kind == 0   ? -0.0f
                  : kind == 1 ? qnan
                              : static_cast<float>(rng.uniform(-2.0, 2.0));
        const std::uint64_t k = rng.uniform_u64(4);
        keep[i] = k == 0 ? 0 : k == 1 ? 0 : k == 2 ? 1 : 0xff;
      }
      for (const bool masked : {true, false}) {
        const std::uint8_t* kp = masked ? keep.data() : nullptr;
        std::vector<float> live(gold.size());
        for (std::size_t i = 0; i < live.size(); ++i)
          live[i] = (kp != nullptr && kp[i] == 0) ? 0.0f : gold[i];
        EXPECT_EQ(diverged_count(live.data(), gold.data(), kp, n), 0);
        EXPECT_EQ(first_divergence(live.data(), gold.data(), kp, n), -1);
        if (n == 0) continue;
        const int injections = trial % 4;
        for (int j = 0; j < injections; ++j) {
          const auto i = static_cast<std::size_t>(
              rng.uniform_u64(static_cast<std::uint64_t>(n)));
          const bool pruned = kp != nullptr && kp[i] == 0;
          switch (rng.uniform_u64(4)) {
            case 0:  // -0 where +0 (pruned) or golden is expected
              live[i] = pruned ? -0.0f : -live[i];
              break;
            case 1:  // NaN payload flip
              live[i] = from_bits(bits_of(qnan) ^ 1u);
              break;
            case 2:  // a kept golden -0 read back as +0
              live[i] = bits_of(live[i]) == bits_of(-0.0f) ? 0.0f : 1.5f;
              break;
            default:
              flip(&live[i], static_cast<int>(rng.uniform_u64(32)));
          }
        }
        const ReferenceCompare ref =
            reference_compare(live.data(), gold.data(), kp, n);
        EXPECT_EQ(diverged_count(live.data(), gold.data(), kp, n),
                  ref.diverged)
            << "n " << n << " trial " << trial << " masked " << masked;
        EXPECT_EQ(first_divergence(live.data(), gold.data(), kp, n),
                  ref.first)
            << "n " << n << " trial " << trial << " masked " << masked;
      }
    }
  }
}

class IntegrityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = tiny_conv_net(31);
    lib_ = prune::PruneLevelLibrary::build_unstructured(net_, {0.0, 0.4, 0.7});
    store_ = WeightStore::snapshot(net_);
  }

  std::vector<float> flat_weights() {
    std::vector<float> out;
    for (const auto& p : net_.params())
      out.insert(out.end(), p.value->data().begin(), p.value->data().end());
    return out;
  }

  nn::Network net_;
  prune::PruneLevelLibrary lib_;
  WeightStore store_;
};

TEST_F(IntegrityFixture, DigestsAreStableAndSensitive) {
  const IntegrityChecker checker(store_);
  for (const std::string& name : store_.param_names()) {
    EXPECT_EQ(checker.digest(name), tensor_digest(store_.get(name)));
  }
  // Any single-bit change to the payload changes the digest.
  nn::Tensor t = store_.get(store_.param_names().front());
  const std::uint64_t before = tensor_digest(t);
  std::uint32_t bits = 0;
  std::memcpy(&bits, t.raw(), sizeof(bits));
  bits ^= 1u;
  std::memcpy(t.raw(), &bits, sizeof(bits));
  EXPECT_NE(tensor_digest(t), before);
}

TEST_F(IntegrityFixture, CleanNetworkScrubsClean) {
  const IntegrityChecker checker(store_);
  for (int level = 0; level < lib_.level_count(); ++level) {
    store_.apply_mask(net_, lib_.mask(level));
    const ScrubReport report = checker.scrub(net_, lib_.mask(level));
    EXPECT_TRUE(report.clean()) << "level " << level;
    EXPECT_EQ(report.elements_checked, store_.total_elements());
  }
}

// Parity sweep: every injected single-bit flip — any parameter, low/high
// bits, kept or pruned element, any level — must be detected (the scrub is
// an exhaustive compare, so this is 100% by construction) and healed back
// to bit-exact weights.
TEST_F(IntegrityFixture, DetectsAndHealsEverySingleBitFlip) {
  const IntegrityChecker checker(store_);
  const int level = 1;
  store_.apply_mask(net_, lib_.mask(level));
  const std::vector<float> golden_masked = flat_weights();

  auto params = net_.params();
  Rng rng(99);
  for (const int bit : {0, 7, 15, 23, 30, 31}) {
    for (std::size_t pi = 0; pi < params.size(); ++pi) {
      nn::Tensor& value = *params[pi].value;
      const std::int64_t element = static_cast<std::int64_t>(
          rng.uniform_u64(static_cast<std::uint64_t>(value.numel())));
      float* slot = value.raw() + element;
      std::uint32_t bits = 0;
      std::memcpy(&bits, slot, sizeof(bits));
      bits ^= (1u << bit);
      std::memcpy(slot, &bits, sizeof(bits));

      const ScrubReport report = checker.scrub(net_, lib_.mask(level));
      ASSERT_EQ(report.findings.size(), 1u)
          << "param " << params[pi].name << " bit " << bit;
      EXPECT_EQ(report.findings[0].param, params[pi].name);
      EXPECT_EQ(report.findings[0].diverged_elements, 1);
      EXPECT_EQ(report.findings[0].first_index, element);
      EXPECT_FALSE(report.findings[0].store_corrupt);

      const RepairReport fix = checker.repair(net_, lib_.mask(level), report);
      EXPECT_EQ(fix.elements_repaired, 1);
      EXPECT_EQ(fix.bytes_written, static_cast<std::int64_t>(sizeof(float)));
      EXPECT_TRUE(fix.fully_repaired());
    }
  }
  // After the whole sweep the weights are bit-exactly the masked golden.
  const std::vector<float> healed = flat_weights();
  ASSERT_EQ(healed.size(), golden_masked.size());
  for (std::size_t i = 0; i < healed.size(); ++i)
    EXPECT_EQ(std::memcmp(&healed[i], &golden_masked[i], sizeof(float)), 0)
        << "element " << i;
}

TEST_F(IntegrityFixture, ScrubAndRepairHealsMultiElementCorruption) {
  const IntegrityChecker checker(store_);
  store_.apply_mask(net_, lib_.mask(2));
  auto params = net_.params();
  // Corrupt several elements across two parameters.
  for (std::int64_t e : {0, 3, 5}) params[0].value->raw()[e] += 1.5f;
  params.back().value->raw()[1] = -42.0f;

  ScrubReport scrub;
  const RepairReport fix = checker.scrub_and_repair(net_, lib_.mask(2), &scrub);
  EXPECT_GE(scrub.diverged_elements(), 3);
  EXPECT_EQ(fix.elements_repaired, scrub.diverged_elements());
  EXPECT_TRUE(fix.fully_repaired());
  EXPECT_TRUE(checker.scrub(net_, lib_.mask(2)).clean());
}

TEST_F(IntegrityFixture, StoreCorruptionIsDetectedButNotLaundered) {
  const IntegrityChecker checker(store_);
  store_.apply_mask(net_, lib_.mask(0));
  const std::string victim = store_.param_names().front();
  store_.flip_bit(victim, 0, 30);

  const ScrubReport report = checker.scrub(net_, lib_.mask(0));
  ASSERT_FALSE(report.clean());
  EXPECT_TRUE(report.store_corrupt());
  bool found = false;
  for (const IntegrityFinding& f : report.findings)
    if (f.param == victim) {
      found = true;
      EXPECT_TRUE(f.store_corrupt);
      // The live copy diverges from the now-corrupt golden at that element.
      EXPECT_EQ(f.diverged_elements, 1);
    }
  EXPECT_TRUE(found);

  // Repair must NOT copy from the corrupt golden: the live value is kept
  // and the parameter is reported unrepairable.
  const float live_before = net_.params()[0].value->raw()[0];
  const RepairReport fix = checker.repair(net_, lib_.mask(0), report);
  EXPECT_FALSE(fix.fully_repaired());
  ASSERT_EQ(fix.unrepairable.size(), 1u);
  EXPECT_EQ(fix.unrepairable[0], victim);
  EXPECT_EQ(net_.params()[0].value->raw()[0], live_before);
}

TEST_F(IntegrityFixture, FlipOnPrunedElementIsDetected) {
  const IntegrityChecker checker(store_);
  const int level = lib_.level_count() - 1;
  const prune::NetworkMask& mask = lib_.mask(level);
  store_.apply_mask(net_, mask);
  // Find a pruned (zeroed) element and flip a bit in it: a stray write to
  // "dead" weights still violates the invariant and must be caught.
  auto params = net_.params();
  for (const auto& p : params) {
    const auto* keep = mask.find(p.name);
    if (keep == nullptr) continue;
    for (std::size_t i = 0; i < keep->size(); ++i) {
      if ((*keep)[i]) continue;
      p.value->raw()[i] = 0.25f;
      const ScrubReport report = checker.scrub(net_, mask);
      ASSERT_EQ(report.findings.size(), 1u);
      EXPECT_EQ(report.findings[0].param, p.name);
      const RepairReport fix = checker.repair(net_, mask, report);
      EXPECT_EQ(fix.elements_repaired, 1);
      EXPECT_EQ(p.value->raw()[i], 0.0f);
      return;
    }
  }
  FAIL() << "level library pruned nothing";
}

TEST_F(IntegrityFixture, IntegratesWithReversiblePruner) {
  ReversiblePruner pruner(net_, lib_);
  const IntegrityChecker checker(pruner.store());
  pruner.set_level(1);
  const prune::NetworkMask& mask = lib_.mask(1);
  EXPECT_TRUE(checker.scrub(pruner.network(), mask).clean());

  // Corrupt the live net through the provider's own network reference.
  pruner.network().params()[0].value->raw()[2] += 1.5f;
  ScrubReport scrub;
  const RepairReport fix =
      checker.scrub_and_repair(pruner.network(), mask, &scrub);
  EXPECT_EQ(scrub.diverged_elements(), 1);
  EXPECT_EQ(fix.elements_repaired, 1);
  // Healed state survives a full prune/restore cycle bit-exactly.
  pruner.set_level(2);
  pruner.restore_full();
  EXPECT_TRUE(checker.scrub(pruner.network(), lib_.mask(0)).clean());
}

// A flip at the first, middle and last golden element of every parameter
// is reported store_corrupt for exactly that parameter.
TEST_F(IntegrityFixture, StoreFlipIsReportedForExactlyThatParameter) {
  const IntegrityChecker checker(store_);
  const prune::NetworkMask& mask = lib_.mask(1);
  store_.apply_mask(net_, mask);
  for (const std::string& name : store_.param_names()) {
    const std::int64_t n = store_.get(name).numel();
    for (const std::int64_t element : {std::int64_t{0}, n / 2, n - 1}) {
      store_.flip_bit(name, element, 17);
      const ScrubReport report = checker.scrub(net_, mask);
      ASSERT_EQ(report.findings.size(), 1u) << name << " @" << element;
      EXPECT_EQ(report.findings[0].param, name);
      EXPECT_TRUE(report.findings[0].store_corrupt);
      store_.flip_bit(name, element, 17);
    }
  }
  EXPECT_TRUE(checker.scrub(net_, mask).clean());
}

// Scrub and repair through the checker against the scalar reference: a
// random mask over some parameters (others have no entry), with -0, NaN
// and bit-flip divergences injected into the live weights.
TEST_F(IntegrityFixture, ScrubAndRepairMatchScalarReference) {
  const IntegrityChecker checker(store_);
  auto params = net_.params();
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    prune::NetworkMask mask;
    for (std::size_t pi = 0; pi < params.size(); ++pi) {
      if ((pi + static_cast<std::size_t>(trial)) % 3 == 0) continue;
      std::vector<std::uint8_t> keep(
          static_cast<std::size_t>(params[pi].value->numel()));
      for (std::uint8_t& k : keep)
        k = static_cast<std::uint8_t>(rng.uniform_u64(2));
      mask.set(params[pi].name, std::move(keep));
    }
    store_.apply_mask(net_, mask);
    for (int j = 0; j < 3 * trial; ++j) {
      nn::Tensor& value = *params[rng.uniform_u64(params.size())].value;
      float* slot = value.raw() +
                    rng.uniform_u64(static_cast<std::uint64_t>(value.numel()));
      switch (rng.uniform_u64(3)) {
        case 0:
          *slot = -*slot;
          break;
        case 1:
          *slot = from_bits(0x7fc00001u);
          break;
        default:
          flip(slot, static_cast<int>(rng.uniform_u64(32)));
      }
    }

    std::vector<IntegrityFinding> expected;
    for (const auto& p : params) {
      const auto* keep = mask.find(p.name);
      const ReferenceCompare ref = reference_compare(
          p.value->raw(), store_.get(p.name).raw(),
          keep != nullptr ? keep->data() : nullptr, p.value->numel());
      if (ref.diverged == 0) continue;
      IntegrityFinding f;
      f.param = p.name;
      f.diverged_elements = ref.diverged;
      f.first_index = ref.first;
      expected.push_back(f);
    }
    const ScrubReport report = checker.scrub(net_, mask);
    EXPECT_EQ(report.elements_checked, store_.total_elements());
    ASSERT_EQ(report.findings.size(), expected.size()) << "trial " << trial;
    std::int64_t total = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(report.findings[i].param, expected[i].param);
      EXPECT_EQ(report.findings[i].diverged_elements,
                expected[i].diverged_elements);
      EXPECT_EQ(report.findings[i].first_index, expected[i].first_index);
      EXPECT_FALSE(report.findings[i].store_corrupt);
      total += expected[i].diverged_elements;
    }
    const RepairReport fix = checker.repair(net_, mask, report);
    EXPECT_EQ(fix.elements_repaired, total);
    EXPECT_EQ(fix.bytes_written,
              total * static_cast<std::int64_t>(sizeof(float)));
    EXPECT_TRUE(checker.scrub(net_, mask).clean());
  }
}

TEST_F(IntegrityFixture, WrongLengthMaskThrowsFromScrubAndRepair) {
  const IntegrityChecker checker(store_);
  const prune::NetworkMask& good = lib_.mask(1);
  store_.apply_mask(net_, good);
  auto params = net_.params();
  params[0].value->raw()[0] += 1.0f;
  const ScrubReport report = checker.scrub(net_, good);
  ASSERT_FALSE(report.clean());
  ASSERT_EQ(report.findings[0].param, params[0].name);

  for (const std::int64_t delta : {-1, 1}) {
    prune::NetworkMask bad = good;
    bad.set(params[0].name,
            std::vector<std::uint8_t>(
                static_cast<std::size_t>(params[0].value->numel() + delta),
                1));
    EXPECT_THROW(checker.scrub(net_, bad), PreconditionError);
    EXPECT_THROW(checker.repair(net_, bad, report), PreconditionError);
  }
}

TEST_F(IntegrityFixture, StoreFlipBitValidatesArguments) {
  EXPECT_THROW(store_.flip_bit("nope", 0, 0), PreconditionError);
  const std::string name = store_.param_names().front();
  EXPECT_THROW(store_.flip_bit(name, -1, 0), PreconditionError);
  EXPECT_THROW(store_.flip_bit(name, store_.get(name).numel(), 0),
               PreconditionError);
  EXPECT_THROW(store_.flip_bit(name, 0, 32), PreconditionError);
  // A double flip is the identity: bit-exact round trip.
  const float before = store_.get(name).raw()[0];
  store_.flip_bit(name, 0, 13);
  store_.flip_bit(name, 0, 13);
  EXPECT_EQ(std::memcmp(&before, store_.get(name).raw(), sizeof(float)), 0);
}

}  // namespace
}  // namespace rrp::core
