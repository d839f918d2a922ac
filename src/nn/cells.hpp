// Recurrent cells for RNNupdate (§6.2): basic tanh, GRU, and LSTM. The
// paper evaluates all three and ships GRU; the cell type is a configuration
// knob on pp::models::RnnModel.
//
// State convention: a CellState is a small vector of [batch x hidden]
// matrices — one entry for tanh/GRU (h), two for LSTM (h, c). The first
// entry is always the externally visible hidden vector (the one persisted
// to the serving key-value store).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/ops.hpp"
#include "nn/module.hpp"
#include "tensor/qgemm.hpp"
#include "util/rng.hpp"

namespace pp::nn {

using CellState = std::vector<Variable>;

enum class CellType { kTanh, kGru, kLstm };

const char* to_string(CellType type);

class RecurrentCell : public Module {
 public:
  /// Zero state for a batch of the given size.
  CellState initial_state(std::size_t batch) const;
  /// Number of state matrices (1 for tanh/GRU, 2 for LSTM).
  virtual std::size_t state_parts() const = 0;

  /// One recurrence step: consumes [batch x input] and the previous state,
  /// returns the next state. state.front() is the exposed hidden vector.
  virtual CellState step(const CellState& state, const Variable& x) const = 0;

  /// Tape-free step over raw matrices (serving path, offline replay and the
  /// learner's gate); mutates `state` in place. Computes what step()
  /// computes, with the gates on the tensor/vmath.hpp lanes the int8 cell
  /// runs (tested for equivalence within float rounding).
  virtual void infer_step(std::vector<Matrix>& state, const Matrix& x)
      const = 0;

  /// Zero raw state for a batch of the given size.
  std::vector<Matrix> infer_initial_state(std::size_t batch) const;

  std::size_t input_size() const { return input_size_; }
  std::size_t hidden_size() const { return hidden_size_; }

 protected:
  RecurrentCell(std::size_t input_size, std::size_t hidden_size)
      : input_size_(input_size), hidden_size_(hidden_size) {}

  std::size_t input_size_;
  std::size_t hidden_size_;
};

/// Factory: builds the requested cell type.
std::unique_ptr<RecurrentCell> make_cell(CellType type, std::size_t input_size,
                                         std::size_t hidden_size, Rng& rng);

/// h' = tanh(x Wx + h Wh + b).
class TanhCell final : public RecurrentCell {
 public:
  TanhCell(std::size_t input_size, std::size_t hidden_size, Rng& rng);
  std::size_t state_parts() const override { return 1; }
  CellState step(const CellState& state, const Variable& x) const override;
  void infer_step(std::vector<Matrix>& state, const Matrix& x) const override;

 private:
  Variable wx_;  // [input x hidden]
  Variable wh_;  // [hidden x hidden]
  Variable b_;   // [1 x hidden]
};

/// PyTorch-convention GRU:
///   r = sigmoid(x Wxr + bxr + h Whr + bhr)
///   z = sigmoid(x Wxz + bxz + h Whz + bhz)
///   n = tanh(x Wxn + bxn + r * (h Whn + bhn))
///   h' = (1 - z) * n + z * h
/// Gate weights are packed [input x 3*hidden] / [hidden x 3*hidden] in
/// (r, z, n) order so each step costs two matmuls.
class GruCell final : public RecurrentCell {
 public:
  GruCell(std::size_t input_size, std::size_t hidden_size, Rng& rng);
  std::size_t state_parts() const override { return 1; }
  CellState step(const CellState& state, const Variable& x) const override;
  void infer_step(std::vector<Matrix>& state, const Matrix& x) const override;

  // Gate weights exposed for the int8 serving replica (QuantizedGruCell).
  const Variable& wx() const { return wx_; }
  const Variable& wh() const { return wh_; }
  const Variable& bx() const { return bx_; }
  const Variable& bh() const { return bh_; }

 private:
  Variable wx_;  // [input x 3*hidden]
  Variable wh_;  // [hidden x 3*hidden]
  Variable bx_;  // [1 x 3*hidden]
  Variable bh_;  // [1 x 3*hidden]
};

/// Caller-owned working memory of the fused int8 step
/// (QuantizedGruCell::infer_step) and head (RnnNetwork::infer_logits_q8).
/// Buffers only grow, so once warmed up a call allocates nothing.
struct QuantizedScratch {
  std::vector<std::int8_t> q;           // quantized activation rows
  std::vector<float> row_scale;         // their per-row scales
  std::vector<std::int32_t> row_zero_point;
  std::vector<std::int32_t> acc_x;      // i32 products
  std::vector<std::int32_t> acc_h;
  std::vector<float> act;               // f32 activation rows
  std::vector<float> out;               // the step's f32 next hidden rows

  /// v.data(), grown to at least n elements.
  template <class T>
  static T* sized(std::vector<T>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
    return v.data();
  }
};

/// Int8 serving replica of a GruCell (§9 single-byte hidden states scored
/// without an f32 round trip). Gate weights are quantized and packed once
/// at build (tensor::QuantizedWeights); biases stay f32.
class QuantizedGruCell {
 public:
  explicit QuantizedGruCell(const GruCell& cell);

  /// One fused recurrence step over the B = h.rows() rows of `h`, the int8
  /// hidden state exactly as the serving KV tier stores it (symmetric,
  /// [B x hidden], one scale per row or per tensor). `x` is the f32 input
  /// [B x input], row-major; it may be the `out` buffer of `scratch`.
  ///
  /// Each row's input is quantized, the products x·Wx (sparse: all-zero
  /// quads skipped) and h·Wh (dense, straight from the stored bytes) are
  /// accumulated into the scratch's i32 buffers, and the dequant, biases
  /// and gates (tensor/vmath.hpp sigmoid and tanh) follow the unfused
  /// order: qgemm's scale * float(acc), + bias, gx + gh. `h` is re-encoded
  /// in place (bytes and per-row scale, the HiddenStateStore codec rules);
  /// the f32 next hidden rows [B x hidden] are returned, held in
  /// scratch.out, as a stacked layer's input. No allocation once the
  /// scratch is warm.
  const float* infer_step(tensor::QuantizedMatrix& h, const float* x,
                          QuantizedScratch& scratch) const;

  std::size_t input_size() const { return wx_.rows(); }
  std::size_t hidden_size() const { return wh_.rows(); }

 private:
  tensor::QuantizedWeights wx_;  // int8 [input x 3*hidden]
  tensor::QuantizedWeights wh_;  // int8 [hidden x 3*hidden]
  Matrix bx_;                    // f32 [1 x 3*hidden]
  Matrix bh_;                    // f32 [1 x 3*hidden]
};

/// Standard LSTM with packed gates in (i, f, g, o) order and forget-gate
/// bias initialized to 1.
class LstmCell final : public RecurrentCell {
 public:
  LstmCell(std::size_t input_size, std::size_t hidden_size, Rng& rng);
  std::size_t state_parts() const override { return 2; }
  CellState step(const CellState& state, const Variable& x) const override;
  void infer_step(std::vector<Matrix>& state, const Matrix& x) const override;

 private:
  Variable wx_;  // [input x 4*hidden]
  Variable wh_;  // [hidden x 4*hidden]
  Variable b_;   // [1 x 4*hidden]
};

/// Random semi-orthogonal matrix via Gram-Schmidt on Gaussian columns;
/// standard initialization for hidden-to-hidden recurrent weights.
Matrix orthogonal_init(std::size_t rows, std::size_t cols, Rng& rng);

}  // namespace pp::nn
