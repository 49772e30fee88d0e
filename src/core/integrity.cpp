#include "core/integrity.h"

#include <cstring>

#include "util/checks.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace rrp::core {

std::uint64_t fnv1a64(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
constexpr std::size_t kLanes = 4;

/// Rotate left; 0 < r < 64.
inline std::uint64_t rotl64(std::uint64_t x, unsigned r) {
  return (x << r) | (x >> (64 - r));
}

/// One lane step: xor the word in, rotate, multiply by the (odd) FNV
/// prime.  For a fixed word it is a bijection of the lane state, and for a
/// fixed state a bijection of the word.  The rotation feeds high bits back
/// into the multiply's carry chain: without it a flip of a word's top bit
/// toggles only the lane's top bit, and two such flips in one lane cancel.
inline std::uint64_t lane_step(std::uint64_t h, std::uint64_t word) {
  return rotl64(h ^ word, 29) * kFnvPrime;
}

inline std::uint64_t load_word(const unsigned char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

}  // namespace

std::uint64_t word_digest(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h[kLanes];
  for (std::size_t k = 0; k < kLanes; ++k) h[k] = kFnvBasis + k;
  const std::size_t words = bytes / sizeof(std::uint64_t);
  std::size_t w = 0;
  // Four independent multiply chains: word w feeds lane w mod 4.
  for (; w + kLanes <= words; w += kLanes)
    for (std::size_t k = 0; k < kLanes; ++k)
      h[k] = lane_step(h[k], load_word(p + (w + k) * sizeof(std::uint64_t)));
  for (; w < words; ++w)
    h[w % kLanes] =
        lane_step(h[w % kLanes], load_word(p + w * sizeof(std::uint64_t)));
  // Tail bytes, zero-padded into one last word (never read past `bytes`).
  const std::size_t tail = bytes - words * sizeof(std::uint64_t);
  if (tail != 0) {
    std::uint64_t last = 0;
    std::memcpy(&last, p + words * sizeof(std::uint64_t), tail);
    h[words % kLanes] = lane_step(h[words % kLanes], last);
  }
  // Distinct rotations keep a cross-lane swap from cancelling in the xor;
  // the length fold separates payloads that differ only by zero padding.
  std::uint64_t out = h[0];
  for (std::size_t k = 1; k < kLanes; ++k)
    out ^= rotl64(h[k], static_cast<unsigned>(16 * k));
  return (out ^ static_cast<std::uint64_t>(bytes)) * kFnvPrime;
}

std::uint64_t tensor_digest(const nn::Tensor& t) {
  return word_digest(t.raw(),
                     sizeof(float) * static_cast<std::size_t>(t.numel()));
}

std::int64_t ScrubReport::diverged_elements() const {
  std::int64_t n = 0;
  for (const IntegrityFinding& f : findings) n += f.diverged_elements;
  return n;
}

bool ScrubReport::store_corrupt() const {
  for (const IntegrityFinding& f : findings)
    if (f.store_corrupt) return true;
  return false;
}

IntegrityChecker::IntegrityChecker(const WeightStore& store) : store_(&store) {
  for (const std::string& name : store.param_names())
    digests_.emplace(name, tensor_digest(store.get(name)));
}

std::uint64_t IntegrityChecker::digest(const std::string& param) const {
  auto it = digests_.find(param);
  RRP_CHECK_MSG(it != digests_.end(), "no digest for '" << param << "'");
  return it->second;
}

namespace {

inline std::uint32_t float_bits(const float* p) {
  std::uint32_t u;
  std::memcpy(&u, p, sizeof u);
  return u;
}

/// All-ones for a kept element (any nonzero keep byte), zero for a pruned
/// one.
inline std::uint32_t keep_bits(std::uint8_t keep) {
  return 0u - static_cast<std::uint32_t>(keep != 0);
}

/// bits(golden ⊙ mask) at i; `keep` == nullptr means fully kept.
inline std::uint32_t expected_bits(const float* gold, const std::uint8_t* keep,
                                   std::int64_t i) {
  const std::uint32_t g = float_bits(gold + i);
  return keep == nullptr ? g : g & keep_bits(keep[i]);
}

/// The mask entry of one parameter (nullptr: fully kept), checked against
/// the parameter's length: a stale or foreign mask must not be read past
/// its end.
const std::uint8_t* mask_bytes(const prune::NetworkMask& mask,
                               const std::string& param, std::int64_t n) {
  const auto* keep = mask.find(param);
  if (keep == nullptr) return nullptr;
  RRP_CHECK_MSG(static_cast<std::int64_t>(keep->size()) == n,
                "mask for '" << param << "' has " << keep->size()
                             << " entries, parameter has " << n);
  return keep->data();
}

}  // namespace

// No early exit and no data-dependent branch, so a clean scrub streams
// both arrays at memory speed.
std::int64_t diverged_count(const float* live, const float* gold,
                            const std::uint8_t* keep, std::int64_t n) {
  std::int64_t count = 0;
  if (keep == nullptr) {
    for (std::int64_t i = 0; i < n; ++i)
      count += float_bits(live + i) != float_bits(gold + i);
  } else {
    for (std::int64_t i = 0; i < n; ++i)
      count += float_bits(live + i) !=
               (float_bits(gold + i) & keep_bits(keep[i]));
  }
  return count;
}

std::int64_t first_divergence(const float* live, const float* gold,
                              const std::uint8_t* keep, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i)
    if (float_bits(live + i) != expected_bits(gold, keep, i)) return i;
  return -1;
}

ScrubReport IntegrityChecker::scrub(nn::Network& net,
                                    const prune::NetworkMask& mask) const {
  return scrub_params(net.params(), mask);
}

// rrp-frame-path: the periodic bit-level scrub runs on the mission
// loop's scrub cadence inside the frame budget (DESIGN.md invariant 10).
ScrubReport IntegrityChecker::scrub_params(
    std::span<const nn::ParamRef> params,
    const prune::NetworkMask& mask) const {
  RRP_SPAN_VAR(span, "integrity.scrub");
  ScrubReport report;
  for (const nn::ParamRef& p : params) {
    const nn::Tensor& gold = store_->get(p.name);
    RRP_CHECK_MSG(gold.shape() == p.value->shape(),
                  "shape drift on '" << p.name << "'");
    const bool store_ok = tensor_digest(gold) == digest(p.name);
    const std::int64_t n = gold.numel();
    const std::uint8_t* keep = mask_bytes(mask, p.name, n);
    const float* live = p.value->raw();
    const float* src = gold.raw();
    report.elements_checked += n;

    IntegrityFinding finding;
    finding.store_corrupt = !store_ok;
    finding.diverged_elements = diverged_count(live, src, keep, n);
    // The second pass runs only on the detection path.
    if (finding.diverged_elements > 0)
      finding.first_index = first_divergence(live, src, keep, n);
    if (finding.diverged_elements > 0 || finding.store_corrupt) {
      // Populate the name only on the detection path: the clean-scrub
      // fast path must not copy a std::string per parameter.
      finding.param = p.name;
      // rrp-lint-allow(frame-path-alloc): detection path only — corruption was found, the frame yields to recovery and the report is bounded by the parameter count.
      report.findings.push_back(std::move(finding));
    }
  }
  static metrics::Counter& scrubs = metrics::counter("integrity.scrubs");
  static metrics::Counter& elems = metrics::counter("integrity.scrub_elems");
  static metrics::Counter& found = metrics::counter("integrity.findings");
  scrubs.add(1);
  elems.add(report.elements_checked);
  found.add(static_cast<std::int64_t>(report.findings.size()));
  span.add_items(report.elements_checked);
  return report;
}

// rrp-frame-path: the O(Δ) self-heal runs inside the frame that
// detected corruption (time-to-recovery is a certified SLO).
RepairReport IntegrityChecker::repair(nn::Network& net,
                                      const prune::NetworkMask& mask,
                                      const ScrubReport& report) const {
  RRP_SPAN_VAR(span, "integrity.heal");
  RepairReport out;
  if (report.clean()) return out;
  for (auto& p : net.params()) {
    const IntegrityFinding* finding = nullptr;
    for (const IntegrityFinding& f : report.findings)
      if (f.param == p.name) {
        finding = &f;
        break;
      }
    if (finding == nullptr) continue;
    if (finding->store_corrupt) {
      // The golden copy itself diverged from its snapshot digest: copying
      // from it would launder the corruption into "repaired" state.
      // rrp-lint-allow(frame-path-alloc): store-corrupt exceptional path — the run is already degrading, and the list is bounded by the parameter count.
      out.unrepairable.push_back(p.name);
      continue;
    }
    if (finding->diverged_elements == 0) continue;
    const nn::Tensor& gold = store_->get(p.name);
    const std::int64_t n = gold.numel();
    const std::uint8_t* keep = mask_bytes(mask, p.name, n);
    float* live = p.value->raw();
    const float* src = gold.raw();
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint32_t expect = expected_bits(src, keep, i);
      if (float_bits(live + i) != expect) {
        std::memcpy(live + i, &expect, sizeof expect);
        ++out.elements_repaired;
      }
    }
  }
  out.bytes_written =
      out.elements_repaired * static_cast<std::int64_t>(sizeof(float));
  static metrics::Counter& elems = metrics::counter("integrity.heal_elems");
  static metrics::Counter& bytes = metrics::counter("integrity.heal_bytes");
  elems.add(out.elements_repaired);
  bytes.add(out.bytes_written);
  span.add_items(out.elements_repaired);
  return out;
}

RepairReport IntegrityChecker::scrub_and_repair(nn::Network& net,
                                                const prune::NetworkMask& mask,
                                                ScrubReport* out_scrub) const {
  const ScrubReport report = scrub(net, mask);
  const RepairReport repaired = repair(net, mask, report);
  if (out_scrub != nullptr) *out_scrub = report;
  return repaired;
}

}  // namespace rrp::core
