// The per-precision scoring seam of §9 serving. F32Scorer and Int8Scorer
// have the same members; the offline replay (score_users / score_users_q8,
// which the online prequential gate trusts) and serving::RnnPolicy are
// each written once over them, so the gate evaluates what serving runs.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "train/rnn_network.hpp"

namespace pp::train {

/// A batch's exposed hidden rows in a scorer's stored form: `Value` rows
/// (f32 values, or int8 bytes with one scale per row) in grow-only
/// buffers, so a block reused across batches (the serving path's
/// per-thread one) allocates nothing once warm.
template <class Value>
class HiddenBlock {
  static constexpr bool kScaled = std::is_same_v<Value, std::int8_t>;

 public:
  /// [rows x cols]; row contents are left as they were.
  void reshape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    if (values_.size() < rows * cols) values_.resize(rows * cols);
    if constexpr (kScaled) {
      if (scales_.size() < rows) scales_.resize(rows);
    }
  }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  Value* row(std::size_t r) { return values_.data() + r * cols_; }
  const Value* data() const { return values_.data(); }
  /// Row r's dequant scale, and all of them (int8 blocks only).
  float& scale(std::size_t r)
    requires kScaled
  {
    return scales_[r];
  }
  const float* scales() const
    requires kScaled
  {
    return scales_.data();
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Value> values_;
  std::vector<float> scales_;
};

/// f32 numerics: decoded hidden rows, the f32 cell step and fused head.
class F32Scorer {
 public:
  /// Per-user recurrent state, as the KV tier stores it.
  using State = InferenceState;
  /// [B x hidden] rows for score(), filled by gather() or read().
  using Block = HiddenBlock<float>;
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
  /// One read of a user's stored exposed hidden straight into row `row`
  /// of `block` through serving::HiddenStateStore::get_hidden (a template
  /// so this layer does not include serving's): the record's stamp, or
  /// std::nullopt for a cold user with the row untouched.
  template <class Store>
  static auto read(const Store& store, std::uint64_t user_id,
                   const RnnNetwork& network, Block& block, std::size_t row) {
    return store.get_hidden(user_id, network, block.row(row));
  }
  /// Batched RNNpredict -> sigmoid, one access probability per row of
  /// `hidden`; `x` holds as many rows of predict_input_size(). Row b
  /// equals the row scored alone. Inside a sampled obs span it records
  /// the head_gemm and sigmoid stage times.
  std::vector<double> score(const Block& hidden, const float* x) const;

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
  using Block = HiddenBlock<std::int8_t>;
  static constexpr const char* kLabel = "int8";

  explicit Int8Scorer(const RnnNetwork& network);

  const State& cold() const { return cold_; }
  void update(State& state, const Matrix& x) const {
    network_->infer_update_q8(state, x);
  }
  static void gather(Block& block, std::size_t row, const State& state);
  /// The stored bytes and their scale, under get_q8's preconditions.
  template <class Store>
  static auto read(const Store& store, std::uint64_t user_id,
                   const RnnNetwork& network, Block& block, std::size_t row) {
    return store.get_hidden(user_id, network, block.row(row),
                            &block.scale(row));
  }
  std::vector<double> score(const Block& hidden, const float* x) const;

 private:
  const RnnNetwork* network_;
  State cold_;
};

}  // namespace pp::train
