// tensor.h — dense float32 tensor, row-major, NCHW convention for 4-D.
//
// This is deliberately a small owning value type (not an expression
// template library): the inference engine gets its speed from its GEMMs,
// and the pruning runtime needs direct, simple access to weight storage so
// masks and restores are trivial memcpy-level operations.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace rrp::nn {

/// Shape is a list of extents; rank 0 (scalar) through rank 4 are used.
using Shape = std::vector<int>;

/// Returns the element count of a shape. Precondition: all extents > 0
/// (an empty shape denotes a scalar with one element).
std::int64_t shape_numel(const Shape& shape);

/// Count of the n floats at x that are not ±0 (NaN and Inf count), the
/// nonzero rule of effective MACs.  Counted on magnitude bits, branch-free.
std::int64_t count_nonzero(const float* x, std::int64_t n);

/// Human-readable "[2, 3, 4]" form for error messages.
std::string shape_str(const Shape& shape);

/// Dense row-major float tensor.
class Tensor {
 public:
  /// Empty tensor (rank 0, zero elements, distinct from a scalar).
  Tensor() = default;

  /// Allocates a zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Allocates and fills from `values`; size must equal shape_numel(shape).
  Tensor(Shape shape, std::vector<float> values);

  static Tensor zeros(Shape shape);
  static Tensor full(Shape shape, float value);

  const Shape& shape() const { return shape_; }
  int dim() const { return static_cast<int>(shape_.size()); }
  /// Extent of dimension d; supports negative indices (-1 == last).
  int size(int d) const;
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }

  /// Flat element access with bounds checking.
  float& operator[](std::int64_t i);
  float operator[](std::int64_t i) const;

  /// Rank-checked multi-index access.
  float& at(int i0);
  float& at(int i0, int i1);
  float& at(int i0, int i1, int i2);
  float& at(int i0, int i1, int i2, int i3);
  float at(int i0) const;
  float at(int i0, int i1) const;
  float at(int i0, int i1, int i2) const;
  float at(int i0, int i1, int i2, int i3) const;

  /// Returns a copy with a new shape of identical element count.
  Tensor reshape(Shape new_shape) const&;
  /// Same, moving this tensor's storage instead of copying it.
  Tensor reshape(Shape new_shape) &&;

  void fill(float value);

  /// Element-wise in-place operations (shape-checked).
  Tensor& add_(const Tensor& other);
  Tensor& sub_(const Tensor& other);
  Tensor& mul_(float scalar);
  Tensor& axpy_(float alpha, const Tensor& other);  ///< this += alpha * other

  /// Reductions.
  float sum() const;
  float abs_sum() const;    ///< L1 norm of the flattened tensor
  float sq_sum() const;     ///< squared L2 norm
  float max_abs() const;

  /// Bit-exact equality (shape and every element).
  bool equals(const Tensor& other) const;
  /// Max |a-b| over all elements; throws on shape mismatch.
  float max_abs_diff(const Tensor& other) const;

 private:
  void check_rank(int expected) const;
  std::int64_t flat4(int i0, int i1, int i2, int i3) const;

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace rrp::nn
