// Int8 quantized GEMM — the §9 serving-path counterpart of tensor/gemm:
// "neural network quantization methods can also be applied to store single
// bytes instead of floating-point numbers for each dimension". This module
// lets the serving tier *score* on those bytes directly instead of
// round-tripping through f32.
//
// QuantizedMatrix is an int8 affine encoding of a float Matrix:
//
//   v ≈ scale(r) * (q - zero_point(r))
//
// with either one (scale, zero_point) pair for the whole tensor (weights,
// stored hidden states) or one pair per row (activations). Per-row scaling
// is what keeps batching bit-transparent: a row's encoding depends only on
// that row, so a [B x d] quantized product row equals the same row scored
// alone — the invariant the batched serving path relies on. Weights use
// the symmetric special case (zero_point 0, q in [-127, 127]) whose rules
// match the HiddenStateStore int8 codec exactly; one-sided activations
// (ReLU outputs) use the full affine form for an extra bit of resolution.
//
// qgemm computes C = dequant(A) * dequant(B) through an int8 x int8 -> i32
// blocked kernel (same tiles and 4-row micro-kernel as the f32 kernel, on
// the calling thread). Integer accumulation is exact, so blocked == naive
// bit-for-bit with no ±0 caveats. B must be per-tensor symmetric
// (weights); A zero points are folded in afterwards via the standard
// column-sum correction:
//
//   C_ij = sa(i) * sb * (acc_ij - za(i) * colsum_B(j)).
//
// i32 accumulators bound the shared dimension at k < 2^31 / 127^2 ≈ 133k,
// far above any layer width here.
//
// The serving hot path does not go through qgemm(): QuantizedWeights
// holds a weight packed once for every kernel lane, and its multiply()
// writes raw i32 products into caller-owned scratch, which the fused GRU
// step and head (nn::QuantizedGruCell, train::RnnNetwork) dequantize
// themselves. qgemm() stays as the reference those are tested against.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"

namespace pp::tensor {

class QuantizedMatrix {
 public:
  QuantizedMatrix() = default;
  /// Zeroed [rows x cols] with per-row scales of 1 and zero points of 0 —
  /// the assembly buffer for a batch of stored per-user states (fill
  /// row_data / set_row_scale per row).
  QuantizedMatrix(std::size_t rows, std::size_t cols);

  /// Per-tensor symmetric quantization: scale = max finite |v| / 127
  /// (1 when all entries are zero), q = clamp(round-to-nearest(v / scale),
  /// ±127); NaN encodes as 0 and ±Inf saturates. These are exactly the
  /// HiddenStateStore int8 codec rules (single source of truth).
  static QuantizedMatrix quantize(const Matrix& m);
  /// Per-row symmetric: the same rules applied row-wise.
  static QuantizedMatrix quantize_rows(const Matrix& m);
  /// Per-row affine: the row range (nudged to include 0) maps onto
  /// [-128, 127] with a per-row zero point. Reconstruction error is
  /// bounded by scale(r) instead of scale(r)/2 (zero-point rounding), but
  /// the scale itself is ~2x finer on one-sided rows.
  static QuantizedMatrix quantize_rows_affine(const Matrix& m);

  /// Wraps already-quantized bytes (the stored-state read path: no f32
  /// pass). Per-tensor symmetric with the given scale.
  static QuantizedMatrix from_raw(std::size_t rows, std::size_t cols,
                                  float scale, std::vector<std::int8_t> data);

  Matrix dequantize() const;
  /// dequant of one element: scale(r) * (q - zero_point(r)).
  float dequant(std::size_t r, std::size_t c) const {
    return scale(r) * static_cast<float>(
                          static_cast<std::int32_t>(data_[r * cols_ + c]) -
                          zero_point(r));
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  float scale(std::size_t r = 0) const {
    return scales_[scales_.size() == 1 ? 0 : r];
  }
  std::int32_t zero_point(std::size_t r = 0) const {
    return zero_points_[zero_points_.size() == 1 ? 0 : r];
  }
  bool per_tensor() const noexcept { return scales_.size() <= 1; }
  bool symmetric() const;

  const std::int8_t* data() const noexcept { return data_.data(); }
  std::int8_t* row_data(std::size_t r) { return data_.data() + r * cols_; }
  const std::int8_t* row_data(std::size_t r) const {
    return data_.data() + r * cols_;
  }
  const std::vector<std::int8_t>& storage() const noexcept { return data_; }
  void set_row_scale(std::size_t r, float scale);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int8_t> data_;
  /// One entry (per-tensor) or rows entries (per-row).
  std::vector<float> scales_{1.0f};
  std::vector<std::int32_t> zero_points_{0};
};

/// C[m x n] = dequant(A[m x k]) * dequant(B[k x n]) via the int8 kernel.
/// B must be per-tensor symmetric (throws std::invalid_argument otherwise).
Matrix qgemm(const QuantizedMatrix& a, const QuantizedMatrix& b);

/// One row of quantize_rows(): encodes v[0..n) into out[0..n) and returns
/// the row's scale.
float quantize_row(const float* v, std::int8_t* out, std::size_t n);
/// One row of quantize_rows_affine(): encodes v[0..n) into out[0..n) and
/// writes the row's scale and zero point.
void quantize_row_affine(const float* v, std::int8_t* out, std::size_t n,
                         float* scale, std::int32_t* zero_point);

/// An int8 weight operand W [k x n] for the fused serving step and head,
/// built once from the f32 weights: quantize() (per-tensor symmetric),
/// its column sums (the correction an affine A operand needs), and on
/// hosts with avx512_vnni_available() the (W + 128) k-quad panel that
/// vpdpbusd consumes (layout in gemm_simd.hpp).
class QuantizedWeights {
 public:
  explicit QuantizedWeights(const Matrix& w);

  /// c[m x n] = a[m x k] * W with exact i32 accumulation; c is
  /// overwritten. Runs on the calling thread with no allocation, on the
  /// dispatched kernel: naive, blocked, or kSimd's VNNI lane (where the
  /// panel exists) or AVX2 lane. All agree bit for bit.
  void multiply(const std::int8_t* a, std::size_t m, std::int32_t* c) const;

  const QuantizedMatrix& matrix() const noexcept { return q_; }
  float scale() const { return q_.scale(); }
  std::size_t rows() const noexcept { return q_.rows(); }
  std::size_t cols() const noexcept { return q_.cols(); }
  std::size_t size() const noexcept { return q_.size(); }
  std::int32_t col_sum(std::size_t j) const { return col_sums_[j]; }

 private:
  QuantizedMatrix q_;
  std::vector<std::int32_t> col_sums_;
  std::vector<unsigned char> panel_;  // empty without the VNNI lane
};

// ---- raw i32 kernels (exposed for parity tests and benches) ----
// c[m x n] += a[m x k] * b[k x n] over int8 operands with int32
// accumulation, on the calling thread. `simd` runs the AVX2
// vpmaddubsw/vpmaddwd kernel (qgemm_avx2.cpp) when gemm_simd_available()
// and k fits the u8 x s8 accumulator bound, and falls back to `blocked`
// otherwise — integer arithmetic is exact, so all three agree
// bit-for-bit.
void qgemm_nn_i32_naive(const std::int8_t* a, const std::int8_t* b,
                        std::int32_t* c, std::size_t m, std::size_t k,
                        std::size_t n);
void qgemm_nn_i32_blocked(const std::int8_t* a, const std::int8_t* b,
                          std::int32_t* c, std::size_t m, std::size_t k,
                          std::size_t n);
void qgemm_nn_i32_simd(const std::int8_t* a, const std::int8_t* b,
                       std::int32_t* c, std::size_t m, std::size_t k,
                       std::size_t n);

}  // namespace pp::tensor
