#include "prune/levels.h"

#include <algorithm>

#include "util/checks.h"

namespace rrp::prune {

using nn::Network;

std::vector<nn::Layer*> prunable_layers(Network& net) {
  std::vector<nn::Layer*> out;
  for (nn::Layer* l : net.leaf_layers()) {
    if (auto* lin = dynamic_cast<nn::Linear*>(l)) {
      if (lin->out_prunable()) out.push_back(l);
    } else if (auto* conv = dynamic_cast<nn::Conv2D*>(l)) {
      if (conv->out_prunable()) out.push_back(l);
    } else if (auto* dw = dynamic_cast<nn::DepthwiseConv2D*>(l)) {
      if (dw->out_prunable()) out.push_back(l);
    }
  }
  return out;
}

void PruneLevelLibrary::check_ratios(const std::vector<double>& ratios) {
  RRP_CHECK_MSG(!ratios.empty(), "need at least one level");
  RRP_CHECK_MSG(ratios.front() == 0.0, "level 0 must have ratio 0");
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    RRP_CHECK_MSG(ratios[i] >= 0.0 && ratios[i] < 1.0,
                  "ratio " << ratios[i] << " outside [0, 1)");
    if (i > 0)
      RRP_CHECK_MSG(ratios[i] > ratios[i - 1],
                    "ratios must be strictly increasing");
  }
}

PruneLevelLibrary PruneLevelLibrary::build_unstructured(
    Network& net, std::vector<double> ratios, ImportanceMetric metric) {
  check_ratios(ratios);
  PruneLevelLibrary lib;
  lib.ratios_ = std::move(ratios);
  lib.structured_ = false;

  // One global ranking over all weight elements of Linear/Conv2D layers.
  struct Entry {
    std::string param;
    std::size_t index;
  };
  std::vector<Entry> entries;
  std::vector<float> scores;
  std::map<std::string, std::size_t> sizes;
  for (nn::Layer* l : net.leaf_layers()) {
    nn::Tensor* w = nullptr;
    std::string pname;
    if (auto* lin = dynamic_cast<nn::Linear*>(l)) {
      w = &lin->weight();
      pname = lin->name() + ".weight";
    } else if (auto* conv = dynamic_cast<nn::Conv2D*>(l)) {
      w = &conv->weight();
      pname = conv->name() + ".weight";
    } else if (auto* dw = dynamic_cast<nn::DepthwiseConv2D*>(l)) {
      w = &dw->weight();
      pname = dw->name() + ".weight";
    } else {
      continue;
    }
    const auto s = element_scores(*w, metric);
    sizes[pname] = s.size();
    for (std::size_t i = 0; i < s.size(); ++i) {
      entries.push_back({pname, i});
      scores.push_back(s[i]);
    }
  }
  const auto order = ascending_order(scores);

  for (double ratio : lib.ratios_) {
    NetworkMask mask;
    const std::size_t prune_count =
        static_cast<std::size_t>(ratio * static_cast<double>(order.size()));
    if (prune_count > 0) {
      std::map<std::string, std::vector<std::uint8_t>> keeps;
      std::map<std::string, std::size_t> kept;
      for (const auto& [pname, size] : sizes) {
        keeps[pname].assign(size, 1);
        kept[pname] = size;
      }
      for (std::size_t i = 0; i < prune_count; ++i) {
        const Entry& e = entries[order[i]];
        auto& k = kept[e.param];
        if (k <= 1) continue;  // never zero a whole tensor
        keeps[e.param][e.index] = 0;
        --k;
      }
      for (auto& [pname, keep] : keeps) mask.set(pname, std::move(keep));
    }
    lib.masks_.push_back(std::move(mask));
  }
  return lib;
}

PruneLevelLibrary PruneLevelLibrary::build_structured_ranked(
    Network& net, std::vector<double> ratios, const nn::Shape& input_shape,
    const std::vector<LayerRankEntry>& ranks, int min_channels) {
  check_ratios(ratios);
  RRP_CHECK(min_channels >= 1);
  PruneLevelLibrary lib;
  lib.ratios_ = std::move(ratios);
  lib.structured_ = true;

  for (double ratio : lib.ratios_) {
    std::vector<ChannelMask> cms;
    for (const auto& r : ranks) {
      const std::size_t width = r.ascending.size();
      const double layer_ratio = ratio * r.scale;
      std::size_t prune_count =
          static_cast<std::size_t>(layer_ratio * static_cast<double>(width));
      const std::size_t max_prunable =
          width > static_cast<std::size_t>(min_channels)
              ? width - static_cast<std::size_t>(min_channels)
              : 0;
      prune_count = std::min(prune_count, max_prunable);
      if (prune_count == 0) continue;
      ChannelMask cm;
      cm.layer_name = r.layer->name();
      cm.keep.assign(width, 1);
      for (std::size_t i = 0; i < prune_count; ++i)
        cm.keep[r.ascending[i]] = 0;
      cms.push_back(std::move(cm));
    }
    lib.masks_.push_back(lower_channel_masks(net, cms, input_shape));
    lib.channel_masks_.push_back(std::move(cms));
  }
  return lib;
}

PruneLevelLibrary PruneLevelLibrary::build_structured(
    Network& net, std::vector<double> ratios, const nn::Shape& input_shape,
    ImportanceMetric metric, int min_channels) {
  std::vector<LayerRankEntry> ranks;
  for (nn::Layer* l : prunable_layers(net))
    ranks.push_back({l, ascending_order(channel_scores(*l, metric)), 1.0});
  return build_structured_ranked(net, std::move(ratios), input_shape, ranks,
                                 min_channels);
}

PruneLevelLibrary PruneLevelLibrary::build_structured_scored(
    Network& net, std::vector<double> ratios, const nn::Shape& input_shape,
    const std::map<std::string, std::vector<float>>& channel_scores,
    int min_channels) {
  std::vector<LayerRankEntry> ranks;
  for (nn::Layer* l : prunable_layers(net)) {
    const auto it = channel_scores.find(l->name());
    if (it == channel_scores.end()) continue;  // never pruned
    RRP_CHECK_MSG(it->second.size() ==
                      prune::channel_scores(*l, ImportanceMetric::L1).size(),
                  "score width mismatch for '" << l->name() << "'");
    ranks.push_back({l, ascending_order(it->second), 1.0});
  }
  return build_structured_ranked(net, std::move(ratios), input_shape, ranks,
                                 min_channels);
}

PruneLevelLibrary PruneLevelLibrary::build_structured_nonuniform(
    Network& net, std::vector<double> ratios, const nn::Shape& input_shape,
    const std::map<std::string, double>& layer_scale, ImportanceMetric metric,
    int min_channels) {
  std::vector<LayerRankEntry> ranks;
  for (nn::Layer* l : prunable_layers(net)) {
    double scale = 1.0;
    const auto it = layer_scale.find(l->name());
    if (it != layer_scale.end()) {
      RRP_CHECK_MSG(it->second >= 0.0 && it->second <= 1.0,
                    "layer scale for '" << l->name() << "' outside [0, 1]");
      scale = it->second;
    }
    ranks.push_back({l, ascending_order(channel_scores(*l, metric)), scale});
  }
  return build_structured_ranked(net, std::move(ratios), input_shape, ranks,
                                 min_channels);
}

double PruneLevelLibrary::ratio(int level) const {
  RRP_CHECK(level >= 0 && level < level_count());
  return ratios_[static_cast<std::size_t>(level)];
}

const NetworkMask& PruneLevelLibrary::mask(int level) const {
  RRP_CHECK(level >= 0 && level < level_count());
  return masks_[static_cast<std::size_t>(level)];
}

const std::vector<ChannelMask>& PruneLevelLibrary::channel_masks(
    int level) const {
  RRP_CHECK_MSG(structured_, "channel masks exist only in structured mode");
  RRP_CHECK(level >= 0 && level < level_count());
  return channel_masks_[static_cast<std::size_t>(level)];
}

std::vector<double> PruneLevelLibrary::achieved_sparsity(Network& net) const {
  std::vector<double> out;
  out.reserve(masks_.size());
  for (const auto& m : masks_) out.push_back(m.sparsity(net));
  return out;
}

bool PruneLevelLibrary::verify_nested() const {
  for (std::size_t k = 0; k + 1 < masks_.size(); ++k)
    if (!masks_[k].nested_within(masks_[k + 1])) return false;
  return true;
}

std::int64_t PruneLevelLibrary::storage_bytes() const {
  std::int64_t n = 0;
  for (const auto& m : masks_) n += m.storage_bytes();
  return n;
}

}  // namespace rrp::prune
