// integrity.h — runtime weight-integrity checking and O(Δ) self-healing.
//
// Threat model: single-event upsets in weight SRAM/DRAM (the canonical
// memory hazard for safety-critical NN accelerators, cf. Li et al., SC'17).
// Because the reversible runtime keeps the full golden weights resident in
// the WeightStore, integrity becomes cheap to *assert* and cheap to
// *repair*:
//
//   invariant   live weights == golden ⊙ current mask   (element-wise)
//
// The IntegrityChecker captures a word digest of every golden parameter at
// snapshot time.  A periodic SCRUB verifies (a) the store against its own
// digests (golden corruption is detectable even though it is not locally
// repairable) and (b) the live network against golden ⊙ mask, a
// branch-free bit compare.  SELF-HEAL rewrites exactly the divergent
// elements from the store — an O(Δ) copy, where Δ is the number of
// corrupted elements, versus the full-artifact deserialization a
// reload-based stack must pay.
//
// Two digests, two jobs.  `fnv1a64` is byte-wise FNV-1a-64, the portable
// checksum of persisted artifacts (flight-recorder bundles, suite and
// golden-CSV digests pin its bytes).  `word_digest` runs four FNV-1a-style
// lanes over 64-bit words (word w feeds lane w mod 4), so a pass over the
// golden store runs at memory speed rather than one multiply per byte.
// Each lane step is a bijection for a fixed word, so any change confined
// to one 64-bit word — every single-bit flip of any element included —
// changes the digest with certainty.  Words are loaded in host byte order:
// weight digests are only ever compared for equality inside one process
// and are never persisted.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/weight_store.h"

namespace rrp::core {

/// FNV-1a 64-bit digest of a byte range (deterministic, portable).
std::uint64_t fnv1a64(const void* data, std::size_t bytes);

/// Four-lane FNV-1a-style digest over 64-bit words.  Tail bytes are
/// zero-padded into a final word and the byte length is folded in; the
/// lanes combine by xor of distinct rotations.  Any change confined to one
/// word changes the result.  Host byte order: for in-process equality
/// checks only.
std::uint64_t word_digest(const void* data, std::size_t bytes);

/// word_digest of a tensor's float payload.
std::uint64_t tensor_digest(const nn::Tensor& t);

/// The scrub's element compare.  Element i diverges when
/// bits(live[i]) != bits(gold[i]) & (keep[i] ? ~0u : 0u): a bit-level
/// compare (a NaN payload or a signed zero counts), with +0.0f expected in
/// a pruned slot.  `keep` == nullptr means every element is kept.
/// diverged_count is one branch-free pass; first_divergence returns the
/// first divergent index, or -1.
std::int64_t diverged_count(const float* live, const float* gold,
                            const std::uint8_t* keep, std::int64_t n);
std::int64_t first_divergence(const float* live, const float* gold,
                              const std::uint8_t* keep, std::int64_t n);

/// One divergent parameter found by a scrub.
struct IntegrityFinding {
  std::string param;
  std::int64_t diverged_elements = 0;  ///< live != golden ⊙ mask
  std::int64_t first_index = -1;       ///< first divergent flat index
  bool store_corrupt = false;  ///< the golden copy itself fails its digest
};

/// Result of one scrub pass.
struct ScrubReport {
  std::int64_t frame = -1;  ///< set by the caller (runner) when in-loop
  std::vector<IntegrityFinding> findings;
  std::int64_t elements_checked = 0;

  bool clean() const { return findings.empty(); }
  std::int64_t diverged_elements() const;
  bool store_corrupt() const;
};

/// Result of one self-heal pass.
struct RepairReport {
  std::int64_t elements_repaired = 0;  ///< the Δ of the O(Δ) copy
  std::int64_t bytes_written = 0;      ///< elements_repaired * sizeof(float)
  /// Parameters whose golden copy is corrupt: detected but NOT repairable
  /// from the store (a reload from a trusted artifact is required).
  std::vector<std::string> unrepairable;

  bool fully_repaired() const { return unrepairable.empty(); }
};

/// Verifies and repairs the live-weights invariant against a WeightStore.
class IntegrityChecker {
 public:
  /// Captures per-parameter digests of `store`'s golden tensors.  The
  /// store must outlive the checker.
  explicit IntegrityChecker(const WeightStore& store);

  /// Digest captured for one parameter (testing / evidence export).
  std::uint64_t digest(const std::string& param) const;

  /// Full verification pass: every parameter of `net` is compared
  /// element-wise against golden ⊙ mask (parameters absent from the mask
  /// compare against plain golden), and every golden tensor is re-digested
  /// against its snapshot-time digest.  Detects any single-element
  /// divergence by construction (exhaustive compare, not sampling).
  /// Throws PreconditionError if a mask entry's length differs from its
  /// parameter's.
  ScrubReport scrub(nn::Network& net, const prune::NetworkMask& mask) const;
  /// The same pass over a parameter list collected once (net.params()), so
  /// a clean scrub allocates nothing — the frame engine's cadence scrub.
  ScrubReport scrub_params(std::span<const nn::ParamRef> params,
                           const prune::NetworkMask& mask) const;

  /// Repairs the divergences listed in `report` by copying exactly the
  /// divergent elements back from golden ⊙ mask — O(Δ).  Parameters whose
  /// golden copy is itself corrupt are skipped and reported unrepairable.
  /// Same mask-length precondition as scrub.
  RepairReport repair(nn::Network& net, const prune::NetworkMask& mask,
                      const ScrubReport& report) const;

  /// scrub + repair in one call (the runner's periodic path).
  RepairReport scrub_and_repair(nn::Network& net,
                                const prune::NetworkMask& mask,
                                ScrubReport* out_scrub = nullptr) const;

 private:
  const WeightStore* store_;
  std::map<std::string, std::uint64_t> digests_;
};

}  // namespace rrp::core
