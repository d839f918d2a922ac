// The paper's RNN architecture (Figure 3 / §6.2):
//
//   RNNupdate  — a recurrent cell (GRU by default) consuming
//                [f_i ; T(Δt_i) ; A_i] and the previous hidden state;
//   RNNpredict — latent cross h' = h_k ∘ (1 + L(x)) followed by a
//                one-hidden-layer MLP with dropout(0.2) and ReLU:
//                logit = b2 + W2 · ReLU(Dropout(b1 + W1 [h' ; x]))
//                where x = [f_i ; T(t_i − t_k)].
//
// Two execution paths are provided and tested for equivalence:
//  * graph_* methods build autograd graphs (training),
//  * infer_* methods run raw matrix kernels with no tape (serving); this
//    is the path whose cost the Section 9 benchmarks measure.
#pragma once

#include <memory>
#include <vector>

#include "nn/cells.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace pp::train {

using autograd::Variable;
using tensor::Matrix;

struct RnnNetworkConfig {
  /// Width of the per-session context feature vector f (one-hot context +
  /// hour/day-of-week), excluding the time-delta encoding.
  std::size_t feature_size = 0;
  /// Width of the T() one-hot time encoding (50 in the paper).
  std::size_t time_buckets = 50;
  std::size_t hidden_size = 128;
  std::size_t mlp_hidden = 128;
  float dropout = 0.2f;
  nn::CellType cell = nn::CellType::kGru;
  /// Stacked recurrent layers (the paper found 1 sufficient).
  int num_layers = 1;
  /// Element-wise latent cross of §6.2; disabling it reduces RNNpredict to
  /// a plain concat-MLP (ablation).
  bool latent_cross = true;

  std::size_t update_input_size() const {
    return feature_size + time_buckets + 1;  // + A_i
  }
  std::size_t predict_input_size() const {
    return feature_size + time_buckets;
  }
};

/// Raw (tape-free) recurrent state: state_parts() matrices per layer.
struct InferenceState {
  std::vector<std::vector<Matrix>> layers;
  /// The externally visible hidden vector (top layer's h) — the thing the
  /// serving tier persists per user (512 bytes at d=128, §9).
  const Matrix& hidden() const { return layers.back().front(); }
};

/// Int8 recurrent state for the quantized serving mode (GRU only: one
/// hidden matrix per layer). The matrices hold the same bytes + scale the
/// KV tier stores — scoring consumes them without an f32 decode.
struct QuantizedInferenceState {
  std::vector<tensor::QuantizedMatrix> layers;
  const tensor::QuantizedMatrix& hidden() const { return layers.back(); }
  tensor::QuantizedMatrix& hidden() { return layers.back(); }
};

/// Int8 weight replicas for the quantized serving path, built once from
/// the trained f32 parameters (prepare_quantized), which also packs each
/// weight for the VNNI lane on hosts that have it. Wrapped layers are
/// heap-held so the struct stays movable while QuantizedLinear is
/// construct-only.
struct QuantizedNetworkWeights {
  std::vector<nn::QuantizedGruCell> cells;
  std::unique_ptr<nn::QuantizedLinear> latent;  // null without latent cross
  std::unique_ptr<nn::QuantizedLinear> w1;
  std::unique_ptr<nn::QuantizedLinear> w2;
};

class RnnNetwork : public nn::Module {
 public:
  RnnNetwork(const RnnNetworkConfig& config, Rng& rng);

  const RnnNetworkConfig& config() const { return config_; }

  // ---- training path (autograd graphs) ----
  /// One RNNupdate step. `x` is [1 x update_input_size()].
  std::vector<nn::CellState> graph_update(
      const std::vector<nn::CellState>& state, const Variable& x) const;
  /// Zero initial state (one CellState per layer).
  std::vector<nn::CellState> graph_initial_state() const;
  /// RNNpredict logit. `h_k` is the exposed hidden [1 x hidden]; `x` is
  /// [1 x predict_input_size()].
  Variable graph_predict_logit(const Variable& h_k, const Variable& x,
                               Rng& rng) const;

  // ---- serving path (no tape) ----
  InferenceState infer_initial_state() const;
  void infer_update(InferenceState& state, const Matrix& x) const;
  double infer_logit(const Matrix& h_k, const Matrix& x) const;
  /// Batched RNNpredict: `h_block` is [B x hidden], `x_block` is
  /// [B x predict_input_size()]; one GEMM amortized across B sessions.
  /// Row b equals infer_logit(h_block row b, x_block row b) exactly —
  /// GEMM row independence makes batching bit-transparent.
  std::vector<double> infer_logits(const Matrix& h_block,
                                   const Matrix& x_block) const;

  /// Weight load that keeps the int8 replicas fresh: shadows
  /// Module::deserialize so every path installing new f32 weights through
  /// an RnnNetwork (RnnModel::load or a direct network().deserialize)
  /// also refreshes an enabled quantized serving mode.
  void deserialize(BinaryReader& reader);

  // ---- quantized serving path (int8 weights + int8 states, §9) ----
  /// (Re)builds the int8 weight replicas from the current f32 parameters.
  /// Requires the GRU cell (throws std::invalid_argument otherwise); call
  /// once at load. Weight-mutating entry points (deserialize,
  /// RnnTrainer::fit) refresh an already-enabled mode themselves.
  void prepare_quantized();
  bool quantized_ready() const { return qweights_ != nullptr; }
  const QuantizedNetworkWeights& quantized_weights() const;

  /// Zero int8 state: all-zero bytes with scale 1 — bit-identical to the
  /// int8 codec's encoding of a cold f32 state.
  QuantizedInferenceState infer_initial_state_q8() const;
  /// Int8 RNNupdate: one fused QuantizedGruCell::infer_step per layer
  /// over a per-thread scratch, so a warm call allocates nothing. The
  /// stored int8 hidden feeds the gate products directly and is
  /// re-encoded in place. `x` is [B x update_input_size()] for a state of
  /// B rows (throws std::invalid_argument otherwise).
  void infer_update_q8(QuantizedInferenceState& state, const Matrix& x) const;
  /// Batched int8 RNNpredict, fused: each stage quantizes its activation
  /// rows and runs its int8 product (latent L(x), W1, W2) into a
  /// per-thread i32 scratch, then dequantizes, adds the bias and applies
  /// the activation in the order of the unfused qgemm chain. `h_block` is
  /// [B x hidden] int8 with per-row scales (row b = user b's stored
  /// bytes); `x_block` is f32 [B x predict_input_size()]. No f32 weight
  /// matrix is formed, and row b equals the same row scored alone
  /// (per-row activation quantization + exact integer accumulation keep
  /// batching bit-transparent).
  std::vector<double> infer_logits_q8(const tensor::QuantizedMatrix& h_block,
                                      const Matrix& x_block) const;

  /// Approximate multiply-accumulate count of one infer_logit call (the
  /// §9 compute-cost model).
  std::size_t predict_flops() const;
  /// Approximate MACs of one infer_update call.
  std::size_t update_flops() const;

 private:
  /// Raw one-layer cell step used by infer_update.
  void infer_cell_step(std::size_t layer, std::vector<Matrix>& state,
                       const Matrix& x) const;

  RnnNetworkConfig config_;
  std::vector<std::unique_ptr<nn::RecurrentCell>> cells_;
  std::unique_ptr<nn::Linear> latent_;  // L of the latent cross
  std::unique_ptr<nn::Linear> w1_;
  std::unique_ptr<nn::Linear> w2_;
  /// Int8 replicas (null until prepare_quantized). Built at setup time,
  /// read-only during concurrent serving.
  std::unique_ptr<QuantizedNetworkWeights> qweights_;
};

}  // namespace pp::train
