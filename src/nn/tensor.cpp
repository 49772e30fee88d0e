#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "nn/gemm_kernels.h"
#include "util/checks.h"

namespace rrp::nn {

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (int d : shape) {
    RRP_CHECK_MSG(d > 0, "non-positive extent in shape " << shape_str(shape));
    n *= d;
  }
  return n;
}

std::int64_t count_nonzero(const float* x, std::int64_t n) {
  return kernels::active_count_nonzero()(x, n);
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<std::size_t>(shape_numel(shape_)), 0.0f);
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  RRP_CHECK_MSG(
      static_cast<std::int64_t>(data_.size()) == shape_numel(shape_),
      "value count " << data_.size() << " != numel of " << shape_str(shape_));
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

int Tensor::size(int d) const {
  const int rank = dim();
  if (d < 0) d += rank;
  RRP_CHECK_MSG(d >= 0 && d < rank,
                "dim " << d << " out of range for " << shape_str(shape_));
  return shape_[static_cast<std::size_t>(d)];
}

float& Tensor::operator[](std::int64_t i) {
  RRP_CHECK_MSG(i >= 0 && i < numel(), "flat index " << i << " out of range");
  return data_[static_cast<std::size_t>(i)];
}

float Tensor::operator[](std::int64_t i) const {
  RRP_CHECK_MSG(i >= 0 && i < numel(), "flat index " << i << " out of range");
  return data_[static_cast<std::size_t>(i)];
}

void Tensor::check_rank(int expected) const {
  RRP_CHECK_MSG(dim() == expected, "expected rank " << expected << ", tensor is "
                                                    << shape_str(shape_));
}

std::int64_t Tensor::flat4(int i0, int i1, int i2, int i3) const {
  RRP_CHECK(i0 >= 0 && i0 < shape_[0]);
  RRP_CHECK(i1 >= 0 && i1 < shape_[1]);
  RRP_CHECK(i2 >= 0 && i2 < shape_[2]);
  RRP_CHECK(i3 >= 0 && i3 < shape_[3]);
  return ((static_cast<std::int64_t>(i0) * shape_[1] + i1) * shape_[2] + i2) *
             shape_[3] +
         i3;
}

float& Tensor::at(int i0) {
  check_rank(1);
  return (*this)[i0];
}
float& Tensor::at(int i0, int i1) {
  check_rank(2);
  RRP_CHECK(i0 >= 0 && i0 < shape_[0] && i1 >= 0 && i1 < shape_[1]);
  return data_[static_cast<std::size_t>(i0) * shape_[1] + i1];
}
float& Tensor::at(int i0, int i1, int i2) {
  check_rank(3);
  RRP_CHECK(i0 >= 0 && i0 < shape_[0] && i1 >= 0 && i1 < shape_[1] && i2 >= 0 &&
            i2 < shape_[2]);
  return data_[(static_cast<std::size_t>(i0) * shape_[1] + i1) * shape_[2] +
               i2];
}
float& Tensor::at(int i0, int i1, int i2, int i3) {
  check_rank(4);
  return data_[static_cast<std::size_t>(flat4(i0, i1, i2, i3))];
}

float Tensor::at(int i0) const { return const_cast<Tensor*>(this)->at(i0); }
float Tensor::at(int i0, int i1) const {
  return const_cast<Tensor*>(this)->at(i0, i1);
}
float Tensor::at(int i0, int i1, int i2) const {
  return const_cast<Tensor*>(this)->at(i0, i1, i2);
}
float Tensor::at(int i0, int i1, int i2, int i3) const {
  return const_cast<Tensor*>(this)->at(i0, i1, i2, i3);
}

Tensor Tensor::reshape(Shape new_shape) const& {
  return Tensor(*this).reshape(std::move(new_shape));
}

Tensor Tensor::reshape(Shape new_shape) && {
  RRP_CHECK_MSG(shape_numel(new_shape) == numel(),
                "reshape " << shape_str(shape_) << " -> "
                           << shape_str(new_shape) << " changes numel");
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = std::move(data_);
  shape_.clear();
  return t;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor& Tensor::add_(const Tensor& other) {
  RRP_CHECK_MSG(shape_ == other.shape_, "add_ shape mismatch "
                                            << shape_str(shape_) << " vs "
                                            << shape_str(other.shape_));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
  RRP_CHECK_MSG(shape_ == other.shape_, "sub_ shape mismatch "
                                            << shape_str(shape_) << " vs "
                                            << shape_str(other.shape_));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::mul_(float scalar) {
  for (float& v : data_) v *= scalar;
  return *this;
}

Tensor& Tensor::axpy_(float alpha, const Tensor& other) {
  RRP_CHECK_MSG(shape_ == other.shape_, "axpy_ shape mismatch "
                                            << shape_str(shape_) << " vs "
                                            << shape_str(other.shape_));
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] += alpha * other.data_[i];
  return *this;
}

float Tensor::sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return static_cast<float>(s);
}

float Tensor::abs_sum() const {
  double s = 0.0;
  for (float v : data_) s += std::fabs(v);
  return static_cast<float>(s);
}

float Tensor::sq_sum() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return static_cast<float>(s);
}

float Tensor::max_abs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

bool Tensor::equals(const Tensor& other) const {
  return shape_ == other.shape_ && data_ == other.data_;
}

float Tensor::max_abs_diff(const Tensor& other) const {
  RRP_CHECK_MSG(shape_ == other.shape_, "max_abs_diff shape mismatch "
                                            << shape_str(shape_) << " vs "
                                            << shape_str(other.shape_));
  float m = 0.0f;
  for (std::size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  return m;
}

}  // namespace rrp::nn
