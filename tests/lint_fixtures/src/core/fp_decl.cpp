// fp_decl.cpp — R6 owning-declaration fixture: locals of owning types in
// reachable bodies fire; references, pointers and the header do not.
#include <string>
#include <vector>

namespace rrp::core {

struct Tensor {};
using Shape = std::vector<int>;

float weigh(const Tensor& t, const std::vector<float>& w) {
  std::vector<float> scratch(w.size());
  std::string label = "x";
  (void)t;
  return scratch.empty() ? 0.0f : 1.0f;
}

// rrp-frame-path: owning-declaration fixture root.
Tensor fp_decl_root(const Tensor& in, Shape* out_shape) {
  Tensor copy = in;
  const Shape shape{1, 2};
  const Tensor& alias = in;
  const std::vector<float>* none = nullptr;
  std::vector<std::vector<int>> nested;
  *out_shape = shape;
  (void)weigh(alias, *none);
  return copy;
}

}  // namespace rrp::core
