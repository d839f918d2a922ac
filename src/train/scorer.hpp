// The per-precision scoring seam of §9 serving. F32Scorer and Int8Scorer
// have the same members; the offline replay (score_users / score_users_q8,
// which the online prequential gate trusts) and serving::RnnPolicy are
// each written once over them, so the gate evaluates what serving runs.
#pragma once

#include <vector>

#include "train/rnn_network.hpp"

namespace pp::train {

/// f32 numerics: decoded hidden rows, the f32 cell step and head.
class F32Scorer {
 public:
  /// Per-user recurrent state, as the KV tier stores it.
  using State = InferenceState;
  /// [B x hidden] rows for score(), filled by gather().
  using Block = Matrix;
  /// `precision` label of the obs series score() records.
  static constexpr const char* kLabel = "f32";

  explicit F32Scorer(const RnnNetwork& network);

  /// State of a user with no stored state.
  const State& cold() const { return cold_; }
  void update(State& state, const Matrix& x) const {
    network_->infer_update(state, x);
  }
  /// Copies the state's exposed hidden vector into row `row` of `block`.
  static void gather(Block& block, std::size_t row, const State& state);
  /// Batched RNNpredict -> sigmoid, one access probability per row; row b
  /// equals the row scored alone. Inside a sampled obs span it records the
  /// head_gemm and sigmoid stage times.
  std::vector<double> score(const Block& hidden, const Matrix& x) const;

 private:
  const RnnNetwork* network_;
  State cold_;
};

/// Int8 numerics (GRU only): the stored bytes and scale are the state; the
/// update and head run on the int8 kernels, and the block keeps one scale
/// per row. Throws std::logic_error unless the int8 replicas are prepared.
class Int8Scorer {
 public:
  using State = QuantizedInferenceState;
  using Block = tensor::QuantizedMatrix;
  static constexpr const char* kLabel = "int8";

  explicit Int8Scorer(const RnnNetwork& network);

  const State& cold() const { return cold_; }
  void update(State& state, const Matrix& x) const {
    network_->infer_update_q8(state, x);
  }
  static void gather(Block& block, std::size_t row, const State& state);
  std::vector<double> score(const Block& hidden, const Matrix& x) const;

 private:
  const RnnNetwork* network_;
  State cold_;
};

}  // namespace pp::train
