// Dense row-major float32 matrix — the numeric substrate under the autograd
// tape and the neural network layers. A [1 x d] matrix doubles as a vector.
//
// Design notes:
//  * float32 storage matches the paper's production setting (512-byte
//    hidden states = 128 x f32) and keeps the cache footprint small.
//  * All shape mismatches throw std::invalid_argument; training code relies
//    on these checks instead of silent broadcasting surprises.
//  * The kernels that dominate training time (gemm/gemv) live in
//    tensor/gemm.hpp: cache-blocked and AVX2 kernels plus the naive
//    reference loops, all on the calling thread.
//    matmul/matmul_transposed_*/gemm_accumulate dispatch through them.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace pp::tensor {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(std::size_t rows, std::size_t cols, std::vector<float> data);

  static Matrix zeros(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 0.0f);
  }
  static Matrix ones(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 1.0f);
  }
  /// i.i.d. N(mean, stddev^2) entries.
  static Matrix randn(std::size_t rows, std::size_t cols, Rng& rng,
                      float mean = 0.0f, float stddev = 1.0f);
  /// i.i.d. U(lo, hi) entries.
  static Matrix rand_uniform(std::size_t rows, std::size_t cols, Rng& rng,
                             float lo, float hi);
  /// Xavier/Glorot uniform initialization for a [fan_out x fan_in] weight.
  static Matrix xavier(std::size_t fan_out, std::size_t fan_in, Rng& rng);
  /// A [1 x n] row vector from values.
  static Matrix row_vector(std::span<const float> values);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }
  bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  std::span<float> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const float> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }

  void fill(float value);
  void set_zero() { fill(0.0f); }

  // ---- elementwise (shape-checked) ----
  Matrix& add_inplace(const Matrix& other);
  Matrix& sub_inplace(const Matrix& other);
  Matrix& mul_inplace(const Matrix& other);  // Hadamard
  Matrix& scale_inplace(float s);
  /// this += s * other (axpy).
  Matrix& axpy_inplace(float s, const Matrix& other);
  /// Adds a [1 x cols] row vector to every row (bias broadcast).
  Matrix& add_row_broadcast_inplace(const Matrix& bias);

  Matrix add(const Matrix& other) const;
  Matrix sub(const Matrix& other) const;
  Matrix mul(const Matrix& other) const;  // Hadamard
  Matrix scale(float s) const;

  /// Applies fn to every element, returning a new matrix.
  template <typename F>
  Matrix map(F&& fn) const {
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) {
      out.data_[i] = fn(data_[i]);
    }
    return out;
  }

  // ---- linear algebra ----
  /// Returns this * other. [m x k] * [k x n] -> [m x n].
  Matrix matmul(const Matrix& other) const;
  /// Returns this^T * other. [k x m]^T * [k x n] -> [m x n].
  Matrix matmul_transposed_self(const Matrix& other) const;
  /// Returns this * other^T. [m x k] * [n x k]^T -> [m x n].
  Matrix matmul_transposed_other(const Matrix& other) const;
  Matrix transposed() const;

  // ---- reductions ----
  double sum() const;
  double mean() const;
  /// Column sums as a [1 x cols] matrix.
  Matrix col_sum() const;
  float max_abs() const;
  /// Frobenius norm.
  double norm() const;
  bool all_finite() const;

  // ---- concat / slice (used by the autograd concat op) ----
  /// Horizontal concatenation: [m x a] ++ [m x b] -> [m x (a+b)].
  static Matrix concat_cols(const Matrix& a, const Matrix& b);
  /// Extracts columns [begin, begin+count).
  Matrix slice_cols(std::size_t begin, std::size_t count) const;

  // ---- serialization ----
  void serialize(BinaryWriter& writer) const;
  static Matrix deserialize(BinaryReader& reader);

  bool operator==(const Matrix& other) const = default;
  /// Max-abs-difference comparison for tests.
  bool approx_equal(const Matrix& other, float tol = 1e-5f) const;

  std::string shape_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// C += A * B into a preallocated output (the hot path inside the tape).
void gemm_accumulate(const Matrix& a, const Matrix& b, Matrix& c);

}  // namespace pp::tensor
