// vision_task.h — the synthetic perception task.
//
// Substitution note (see DESIGN.md): stands in for the camera + CNN
// perception stack.  Each scene renders to a small grayscale frame with a
// class-specific stencil whose apparent size and contrast shrink with
// distance and degrade with visibility, plus sensor noise — so task
// difficulty is coupled to scene parameters exactly where it matters for
// the controller (pruned networks fail first on small/dim targets).
// Labels are exact (we generated the scene), so accuracy is measurable.
#pragma once

#include <vector>

#include "nn/train.h"
#include "sim/scenario.h"

namespace rrp::sim {

struct VisionTaskConfig {
  int height = 16;
  int width = 16;
  double base_noise = 0.18;   ///< Gaussian sigma at perfect visibility
  double road_intensity = 0.15;
};

/// Ground-truth label of a scene: dominant actor's type, or kClearLabel.
int scene_label(const Scene& scene);

/// Renders one sensor frame for the scene into the H*W floats at `out`
/// (row-major; a batch-1 input tensor's storage).  `order` is scratch for
/// the actors' draw order; with capacity for the scene's actors the call
/// touches no heap.
void render_into(const Scene& scene, const VisionTaskConfig& config,
                 Rng& rng, float* out, std::vector<const Actor*>& order);

/// Renders one sensor frame [1, H, W] for the scene: render_into on a
/// fresh tensor (the same Rng draws, the same bytes).
nn::Tensor render_scene(const Scene& scene, const VisionTaskConfig& config,
                        Rng& rng);

/// Batch-1 input shape for networks consuming this task.
nn::Shape input_shape(const VisionTaskConfig& config);

/// Uniformly samples scenes across classes / distances / visibilities and
/// renders a labelled dataset (used for training and validation).
nn::Dataset make_dataset(std::size_t n, const VisionTaskConfig& config,
                         Rng& rng);

/// Draws a random single-actor (or clear) scene like make_dataset does;
/// exposed so tests can probe the renderer's difficulty coupling.
Scene random_scene(const VisionTaskConfig& config, Rng& rng);

}  // namespace rrp::sim
