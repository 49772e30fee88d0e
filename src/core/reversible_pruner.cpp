#include "core/reversible_pruner.h"

#include <algorithm>

#include "util/checks.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace rrp::core {

ReversiblePruner::ReversiblePruner(nn::Network& net,
                                   prune::PruneLevelLibrary levels)
    : net_(&net), store_(WeightStore::snapshot(net)), levels_(std::move(levels)) {
  RRP_CHECK_MSG(levels_.level_count() >= 1, "empty level library");
  RRP_CHECK_MSG(levels_.ratio(0) == 0.0, "level 0 must be the full network");
  RRP_CHECK_MSG(levels_.verify_nested(),
                "level library violates the nesting invariant");
  build_deltas();
  // The transition history is a bounded ring: capacity is reserved once
  // here so the frame-path append in set_level never reallocates (R6,
  // DESIGN.md invariant 14).
  history_.reserve(kHistoryCapacity);
  // Level 0 == golden weights; nothing to apply.
}

ReversiblePruner::~ReversiblePruner() {
  if (net_ == nullptr) return;  // moved-from shell
  // Restore golden weights and dense BN statistics without going through
  // set_level (history/time accounting is irrelevant during teardown).
  if (current_level_ != 0) store_.apply_mask(*net_, levels_.mask(0));
  if (!bn_states_.empty()) apply_bn_state(*net_, bn_states_[0]);
}

ReversiblePruner::ReversiblePruner(ReversiblePruner&& other) noexcept
    : name_(std::move(other.name_)),
      net_(other.net_),
      store_(std::move(other.store_)),
      levels_(std::move(other.levels_)),
      bn_states_(std::move(other.bn_states_)),
      current_level_(other.current_level_),
      history_(std::move(other.history_)),
      history_next_(other.history_next_),
      plan_(std::move(other.plan_)),
      arena_(std::move(other.arena_)) {
  other.net_ = nullptr;  // disarm the moved-from destructor
  // Delta lists hold raw pointers into net_ (unchanged) and into our own
  // store_, whose map nodes are stable under move — but rebuild defensively
  // so golden pointers are guaranteed to target THIS store.
  build_deltas();
}

void ReversiblePruner::build_deltas() {
  deltas_.assign(static_cast<std::size_t>(levels_.level_count()), {});
  auto params = net_->params();
  for (int k = 1; k < levels_.level_count(); ++k) {
    const prune::NetworkMask& prev = levels_.mask(k - 1);
    const prune::NetworkMask& cur = levels_.mask(k);
    for (const auto& [pname, keep] : cur.entries()) {
      const auto* prev_keep = prev.find(pname);
      ParamDelta delta;
      for (auto& p : params)
        if (p.name == pname) {
          delta.value = p.value;
          break;
        }
      RRP_CHECK_MSG(delta.value != nullptr,
                    "mask names unknown param '" << pname << "'");
      delta.golden = &store_.get(pname);
      RRP_CHECK(static_cast<std::int64_t>(keep.size()) ==
                delta.golden->numel());
      for (std::uint32_t i = 0; i < keep.size(); ++i) {
        const bool was = prev_keep == nullptr || (*prev_keep)[i] != 0;
        const bool now = keep[i] != 0;
        if (was && !now) delta.indices.push_back(i);
      }
      if (!delta.indices.empty())
        deltas_[static_cast<std::size_t>(k)].push_back(std::move(delta));
    }
  }
}

std::int64_t ReversiblePruner::delta_index_bytes() const {
  std::int64_t n = 0;
  for (const auto& level : deltas_)
    for (const auto& d : level)
      n += static_cast<std::int64_t>(d.indices.size() * sizeof(std::uint32_t));
  return n;
}

namespace {

// rrp-frame-path-stop: sizes a caller-kept output on its first use; every
// later call finds it sized and returns.
void fit_output(nn::Tensor& out, const nn::Shape& shape) {
  if (out.shape() != shape) out = nn::Tensor(shape);
}

// rrp-frame-path-stop: inputs of an unplanned shape (batched evaluation)
// take the allocating forward; frames always match the plan.
nn::Tensor unplanned_forward(nn::Network& net, const nn::Tensor& x) {
  return net.forward(x, /*training=*/false);
}

}  // namespace

nn::Tensor ReversiblePruner::infer(const nn::Tensor& x) {
  if (x.shape() != plan_.input_shape) return unplanned_forward(*net_, x);
  nn::Tensor out;
  infer_into(x, out);
  return out;
}

// rrp-frame-path-stop: plans on the first inference of an input shape;
// every later frame of that shape reuses the plan and the arena.
void ReversiblePruner::plan_for(const nn::Shape& input_shape) {
  plan_ = nn::plan_inference(*net_, input_shape);
  arena_.assign(static_cast<std::size_t>(plan_.arena_floats), 0.0f);
}

// rrp-frame-path: the masked arm's inference on its own arena.
void ReversiblePruner::infer_into(const nn::Tensor& x, nn::Tensor& out) {
  if (x.shape() != plan_.input_shape) plan_for(x.shape());
  fit_output(out, plan_.output_shape);
  net_->forward_into(plan_, x, out, arena_.data());
}

// rrp-frame-path: the masked O(Δ) prune/restore arm runs inside the
// perception frame loop (and on the fast path's scrub-cadence sync).
TransitionStats ReversiblePruner::set_level(int level) {
  RRP_CHECK_MSG(level >= 0 && level < level_count(),
                "level " << level << " outside [0, " << level_count() << ")");
  TransitionStats stats;
  stats.from_level = current_level_;
  stats.to_level = level;
  stats.is_restore = level < current_level_;
  if (level == current_level_) return stats;

  RRP_SPAN_VAR(span, stats.is_restore ? "prune.restore" : "prune.apply");
  Timer timer;
  // Nested masks make any transition a walk over adjacent-level deltas:
  // pruning applies deltas (current, level] as zeros; restoring copies
  // deltas (level, current] back from the golden store. Each touched
  // element is visited exactly once — O(Δ), not O(model).
  if (level > current_level_) {
    for (int k = current_level_ + 1; k <= level; ++k) {
      for (const ParamDelta& d : deltas_[static_cast<std::size_t>(k)]) {
        float* dst = d.value->raw();
        for (std::uint32_t i : d.indices) dst[i] = 0.0f;
        stats.elements_changed +=
            static_cast<std::int64_t>(d.indices.size());
      }
    }
  } else {
    for (int k = current_level_; k > level; --k) {
      for (const ParamDelta& d : deltas_[static_cast<std::size_t>(k)]) {
        float* dst = d.value->raw();
        const float* src = d.golden->raw();
        for (std::uint32_t i : d.indices) dst[i] = src[i];
        stats.elements_changed +=
            static_cast<std::int64_t>(d.indices.size());
      }
    }
  }
  stats.bytes_written =
      stats.elements_changed * static_cast<std::int64_t>(sizeof(float));

  // Switchable BN: swap in this level's calibrated statistics.
  if (!bn_states_.empty()) {
    const BnState& s = bn_states_[static_cast<std::size_t>(level)];
    apply_bn_state(*net_, s);
    stats.bytes_written += s.total_bytes();
  }

  stats.wall_us = timer.elapsed_us();
  current_level_ = level;
  // Bounded history ring (capacity reserved at construction): below
  // capacity this appends in place, at capacity it overwrites the oldest
  // slot, so a long mission never grows the frame path's footprint.
  if (history_.size() < kHistoryCapacity) {
    // rrp-lint-allow(frame-path-alloc): push_back below the capacity reserved in the constructor never reallocates; once full, the ring branch below takes over.
    history_.push_back(stats);
  } else {
    history_[history_next_] = stats;
    history_next_ = (history_next_ + 1) % kHistoryCapacity;
  }

  static metrics::Counter& transitions = metrics::counter("prune.transitions");
  static metrics::Counter& restores = metrics::counter("prune.restores");
  static metrics::Counter& elems = metrics::counter("prune.elements_touched");
  static metrics::Counter& bytes = metrics::counter("prune.bytes_touched");
  transitions.add(1);
  if (stats.is_restore) restores.add(1);
  elems.add(stats.elements_changed);
  bytes.add(stats.bytes_written);
  span.add_items(stats.elements_changed);
  return stats;
}

void ReversiblePruner::set_bn_states(std::vector<BnState> states) {
  RRP_CHECK_MSG(static_cast<int>(states.size()) == level_count(),
                "need exactly one BnState per level");
  bn_states_ = std::move(states);
  apply_bn_state(*net_, bn_states_[static_cast<std::size_t>(current_level_)]);
}

// rrp-frame-path: per-frame MAC accounting of the masked arm.  The plan
// infer_into made for this shape already holds every step's input shape,
// so the count walks no shapes and allocates nothing; an unplanned shape
// walks them.
std::int64_t ReversiblePruner::active_macs(const nn::Shape& input_shape) {
  if (input_shape == plan_.input_shape)
    return nn::plan_effective_macs(plan_);
  return net_->effective_macs(input_shape);
}

std::int64_t ReversiblePruner::resident_weight_bytes() {
  // Resident cost = live network + golden store + masks + delta indices.
  std::int64_t live = net_->param_count() * static_cast<std::int64_t>(sizeof(float));
  return live + store_.total_bytes() + levels_.storage_bytes() +
         delta_index_bytes();
}

CompactedLadder::CompactedLadder(const nn::Network& net,
                                 const prune::PruneLevelLibrary& levels,
                                 const nn::Shape& shape,
                                 const std::vector<BnState>& bn_states)
    : input_shape(shape) {
  RRP_CHECK_MSG(levels.structured(),
                "fast path requires a structured level library");
  RRP_CHECK_MSG(bn_states.empty() ||
                    static_cast<int>(bn_states.size()) == levels.level_count(),
                "need exactly one BnState per level");
  // The ladder is built exactly once, here.  prune.ladder_rebuilds staying
  // flat afterwards is the "no rebuild on the frame path" acceptance
  // signal (test_fast_path.cpp).
  static metrics::Counter& rebuilds = metrics::counter("prune.ladder_rebuilds");
  nets.reserve(static_cast<std::size_t>(levels.level_count()));
  for (int k = 0; k < levels.level_count(); ++k) {
    // Bake the level's calibrated BN statistics in BEFORE compaction so
    // the channel gather keeps the right per-channel entries.
    if (bn_states.empty()) {
      nets.push_back(
          prune::compact_network(net, levels.channel_masks(k), shape));
    } else {
      nn::Network staged = net.clone();
      apply_bn_state(staged, bn_states[static_cast<std::size_t>(k)]);
      nets.push_back(
          prune::compact_network(staged, levels.channel_masks(k), shape));
    }
    macs.push_back(nets.back().macs(shape));
    weight_bytes +=
        nets.back().param_count() * static_cast<std::int64_t>(sizeof(float));
    rebuilds.add(1);
  }
  // Plans point into nets, which is complete (and never grows) from here.
  for (const nn::Network& level_net : nets) {
    plans.push_back(nn::plan_inference(level_net, shape));
    arena_floats = std::max(arena_floats, plans.back().arena_floats);
  }
}

CompactedLadderView::CompactedLadderView(CompactedLadderProvider& owner,
                                         int level) {
  attach_ladder(owner.ladder_);
  RRP_CHECK_MSG(level >= 0 && level < level_count(),
                "level " << level << " outside [0, " << level_count() << ")");
  level_ = level;
}

void CompactedLadderView::attach_ladder(CompactedLadder* ladder) {
  ladder_ = ladder;
  arena_.assign(static_cast<std::size_t>(ladder_->arena_floats), 0.0f);
}

nn::Tensor CompactedLadderView::infer(const nn::Tensor& x) {
  nn::Tensor out;
  infer_into(x, out);
  return out;
}

// rrp-frame-path: a stream's inference — the active level's plan on this
// cursor's own arena.  The ladder's networks and plans are only read, so
// concurrent views (even two at one level) never race.
void CompactedLadderView::infer_into(const nn::Tensor& x, nn::Tensor& out) {
  const auto k = static_cast<std::size_t>(level_);
  nn::Network& net = ladder_->nets[k];
  const nn::InferPlan& plan = ladder_->plans[k];
  if (x.shape() != plan.input_shape) {
    out = unplanned_forward(net, x);
    return;
  }
  fit_output(out, plan.output_shape);
  net.forward_into(plan, x, out, arena_.data());
}

// rrp-frame-path: the O(1) ladder swap is THE per-frame transition of the
// fast path and of every serve stream (invariant 13 — no rebuild, no
// weight traffic, no allocation).
TransitionStats CompactedLadderView::set_level(int level) {
  RRP_CHECK_MSG(level >= 0 && level < level_count(),
                "level " << level << " outside [0, " << level_count() << ")");
  Timer timer;
  TransitionStats stats;
  stats.from_level = level_;
  stats.to_level = level;
  stats.is_restore = level < level_;
  level_ = level;  // cursor-local index swap — the ladder is untouched
  stats.wall_us = timer.elapsed_us();
  if (level != stats.from_level) {
    static metrics::Counter& swaps = metrics::counter("prune.ladder_swaps");
    swaps.add(1);
  }
  return stats;
}

// rrp-frame-path: a stream's MACs — the level's count, precomputed for
// the ladder's input shape.
std::int64_t CompactedLadderView::active_macs(const nn::Shape& input_shape) {
  const auto k = static_cast<std::size_t>(level_);
  if (input_shape == ladder_->input_shape) return ladder_->macs[k];
  return ladder_->nets[k].macs(input_shape);
}

nn::Network& CompactedLadderView::network_at(int level) {
  RRP_CHECK(level >= 0 && level < level_count());
  return ladder_->nets[static_cast<std::size_t>(level)];
}

const nn::Network& CompactedLadderView::active_network() const {
  return ladder_->nets[static_cast<std::size_t>(level_)];
}

CompactedLadderProvider::CompactedLadderProvider(
    nn::Network& net, prune::PruneLevelLibrary levels,
    const nn::Shape& input_shape, std::vector<BnState> bn_states)
    : CompactedLadderView("reversible-fastpath"),
      masked_(net, std::move(levels)),
      // masked_ sits at level 0, so `net` still carries the golden weights.
      owned_(std::make_unique<CompactedLadder>(net, masked_.levels(),
                                               input_shape, bn_states)) {
  attach_ladder(owned_.get());
  if (!bn_states.empty()) masked_.set_bn_states(std::move(bn_states));
}

std::int64_t CompactedLadderProvider::resident_weight_bytes() {
  return masked_.resident_weight_bytes() + ladder_->weight_bytes;
}

}  // namespace rrp::core
