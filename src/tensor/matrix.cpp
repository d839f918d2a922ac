#include "tensor/matrix.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/gemm.hpp"

namespace pp::tensor {

namespace {
void check_same_shape(const Matrix& a, const Matrix& b, const char* op) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape_string() + " vs " + b.shape_string());
  }
}
}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows * cols) {
    throw std::invalid_argument("Matrix: data size does not match shape");
  }
}

Matrix Matrix::randn(std::size_t rows, std::size_t cols, Rng& rng, float mean,
                     float stddev) {
  Matrix out(rows, cols);
  for (auto& v : out.data_) {
    v = static_cast<float>(rng.normal(mean, stddev));
  }
  return out;
}

Matrix Matrix::rand_uniform(std::size_t rows, std::size_t cols, Rng& rng,
                            float lo, float hi) {
  Matrix out(rows, cols);
  for (auto& v : out.data_) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
  return out;
}

Matrix Matrix::xavier(std::size_t fan_out, std::size_t fan_in, Rng& rng) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return rand_uniform(fan_out, fan_in, rng, -bound, bound);
}

void Matrix::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix& Matrix::add_inplace(const Matrix& other) {
  check_same_shape(*this, other, "add");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::sub_inplace(const Matrix& other) {
  check_same_shape(*this, other, "sub");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::mul_inplace(const Matrix& other) {
  check_same_shape(*this, other, "mul");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Matrix& Matrix::scale_inplace(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix& Matrix::axpy_inplace(float s, const Matrix& other) {
  check_same_shape(*this, other, "axpy");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += s * other.data_[i];
  }
  return *this;
}

Matrix& Matrix::add_row_broadcast_inplace(const Matrix& bias) {
  if (bias.rows() != 1 || bias.cols() != cols_) {
    throw std::invalid_argument("add_row_broadcast: bias must be [1 x " +
                                std::to_string(cols_) + "], got " +
                                bias.shape_string());
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    float* row_ptr = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) row_ptr[c] += bias.data()[c];
  }
  return *this;
}

Matrix Matrix::add(const Matrix& other) const {
  Matrix out = *this;
  out.add_inplace(other);
  return out;
}

Matrix Matrix::sub(const Matrix& other) const {
  Matrix out = *this;
  out.sub_inplace(other);
  return out;
}

Matrix Matrix::mul(const Matrix& other) const {
  Matrix out = *this;
  out.mul_inplace(other);
  return out;
}

Matrix Matrix::scale(float s) const {
  Matrix out = *this;
  out.scale_inplace(s);
  return out;
}

void gemm_accumulate(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm: incompatible shapes " +
                                a.shape_string() + " * " + b.shape_string() +
                                " -> " + c.shape_string());
  }
  gemm_nn_dispatch(a, b, c);
}

Matrix Matrix::matmul(const Matrix& other) const {
  Matrix out(rows_, other.cols());
  gemm_accumulate(*this, other, out);
  return out;
}

Matrix Matrix::matmul_transposed_self(const Matrix& other) const {
  // [k x m]^T * [k x n] -> [m x n]
  if (rows_ != other.rows()) {
    throw std::invalid_argument("matmul_transposed_self: shape mismatch " +
                                shape_string() + " vs " +
                                other.shape_string());
  }
  Matrix out(cols_, other.cols());
  gemm_tn_dispatch(*this, other, out);
  return out;
}

Matrix Matrix::matmul_transposed_other(const Matrix& other) const {
  // [m x k] * [n x k]^T -> [m x n]
  if (cols_ != other.cols()) {
    throw std::invalid_argument("matmul_transposed_other: shape mismatch " +
                                shape_string() + " vs " +
                                other.shape_string());
  }
  Matrix out(rows_, other.rows());
  gemm_nt_dispatch(*this, other, out);
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out.at(c, r) = at(r, c);
    }
  }
  return out;
}

double Matrix::sum() const {
  double acc = 0;
  for (float v : data_) acc += v;
  return acc;
}

double Matrix::mean() const {
  return data_.empty() ? 0.0 : sum() / static_cast<double>(data_.size());
}

Matrix Matrix::col_sum() const {
  Matrix out(1, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const float* row_ptr = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) out.data()[c] += row_ptr[c];
  }
  return out;
}

float Matrix::max_abs() const {
  float m = 0;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Matrix::norm() const {
  double acc = 0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

bool Matrix::all_finite() const {
  for (float v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

Matrix Matrix::concat_cols(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("concat_cols: row mismatch " +
                                a.shape_string() + " vs " + b.shape_string());
  }
  Matrix out(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    std::memcpy(out.data() + r * out.cols(), a.data() + r * a.cols(),
                a.cols() * sizeof(float));
    std::memcpy(out.data() + r * out.cols() + a.cols(),
                b.data() + r * b.cols(), b.cols() * sizeof(float));
  }
  return out;
}

Matrix Matrix::slice_cols(std::size_t begin, std::size_t count) const {
  if (begin + count > cols_) {
    throw std::invalid_argument("slice_cols: out of range");
  }
  Matrix out(rows_, count);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::memcpy(out.data() + r * count, data_.data() + r * cols_ + begin,
                count * sizeof(float));
  }
  return out;
}

void Matrix::serialize(BinaryWriter& writer) const {
  writer.write_u64(rows_);
  writer.write_u64(cols_);
  writer.write_vector(data_);
}

Matrix Matrix::deserialize(BinaryReader& reader) {
  const std::uint64_t rows = reader.read_u64();
  const std::uint64_t cols = reader.read_u64();
  auto data = reader.read_vector<float>();
  return Matrix(rows, cols, std::move(data));
}

bool Matrix::approx_equal(const Matrix& other, float tol) const {
  if (!same_shape(other)) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Matrix::shape_string() const {
  // Built with append rather than operator+ chains: GCC 12's -Wrestrict
  // false-positives on the latter at -O2 (PR105651) and src/ builds with
  // warnings-as-errors.
  std::string s = "[";
  s += std::to_string(rows_);
  s += " x ";
  s += std::to_string(cols_);
  s += ']';
  return s;
}

}  // namespace pp::tensor
