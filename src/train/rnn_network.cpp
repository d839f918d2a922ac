#include "train/rnn_network.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/math.hpp"

namespace pp::train {

using namespace autograd;

namespace {

/// The per-thread working memory of the fused int8 step and head.
nn::QuantizedScratch& thread_scratch() {
  thread_local nn::QuantizedScratch scratch;
  return scratch;
}

}  // namespace

RnnNetwork::RnnNetwork(const RnnNetworkConfig& config, Rng& rng)
    : config_(config) {
  // feature_size may be 0 (FeatureMode::kNone, the §10.1 reusable model):
  // the T() time encoding still provides a nonzero input width.
  if (config.time_buckets == 0 || config.hidden_size == 0 ||
      config.mlp_hidden == 0 || config.num_layers < 1) {
    throw std::invalid_argument("RnnNetwork: zero-sized configuration");
  }
  std::size_t input = config.update_input_size();
  for (int l = 0; l < config.num_layers; ++l) {
    cells_.push_back(
        nn::make_cell(config.cell, input, config.hidden_size, rng));
    register_submodule("cell" + std::to_string(l), *cells_.back());
    input = config.hidden_size;
  }
  const std::size_t pred_in = config.predict_input_size();
  if (config.latent_cross) {
    latent_ = std::make_unique<nn::Linear>(pred_in, config.hidden_size, rng,
                                           "latent");
    register_submodule("latent", *latent_);
  }
  w1_ = std::make_unique<nn::Linear>(config.hidden_size + pred_in,
                                     config.mlp_hidden, rng, "w1");
  register_submodule("w1", *w1_);
  w2_ = std::make_unique<nn::Linear>(config.mlp_hidden, 1, rng, "w2");
  register_submodule("w2", *w2_);
}

std::vector<nn::CellState> RnnNetwork::graph_initial_state() const {
  std::vector<nn::CellState> state;
  state.reserve(cells_.size());
  for (const auto& cell : cells_) state.push_back(cell->initial_state(1));
  return state;
}

std::vector<nn::CellState> RnnNetwork::graph_update(
    const std::vector<nn::CellState>& state, const Variable& x) const {
  std::vector<nn::CellState> next;
  next.reserve(cells_.size());
  Variable input = x;
  for (std::size_t l = 0; l < cells_.size(); ++l) {
    next.push_back(cells_[l]->step(state[l], input));
    input = next.back().front();
  }
  return next;
}

Variable RnnNetwork::graph_predict_logit(const Variable& h_k,
                                         const Variable& x, Rng& rng) const {
  Variable crossed = h_k;
  if (config_.latent_cross) {
    // h' = h_k ∘ (1 + L(x))
    crossed = mul(h_k, add_scalar(latent_->forward(x), 1.0f));
  }
  Variable mlp_in = concat_cols(crossed, x);
  Variable hidden = w1_->forward(mlp_in);
  hidden = dropout(hidden, config_.dropout, rng, training());
  hidden = relu(hidden);
  return w2_->forward(hidden);  // raw logit; sigmoid applied by the caller
}

InferenceState RnnNetwork::infer_initial_state() const {
  InferenceState state;
  state.layers.reserve(cells_.size());
  for (const auto& cell : cells_) {
    state.layers.push_back(cell->infer_initial_state(1));
  }
  return state;
}

void RnnNetwork::infer_update(InferenceState& state, const Matrix& x) const {
  const Matrix* input = &x;
  Matrix carried;
  for (std::size_t l = 0; l < cells_.size(); ++l) {
    cells_[l]->infer_step(state.layers[l], *input);
    carried = state.layers[l].front();
    input = &carried;
  }
}

double RnnNetwork::infer_logit(const Matrix& h_k, const Matrix& x) const {
  return infer_logits(h_k, x).front();
}

std::vector<double> RnnNetwork::infer_logits(const Matrix& h_block,
                                             const Matrix& x_block) const {
  if (h_block.rows() != x_block.rows()) {
    throw std::invalid_argument("infer_logits: batch mismatch " +
                                h_block.shape_string() + " vs " +
                                x_block.shape_string());
  }
  Matrix crossed = h_block;
  if (config_.latent_cross) {
    Matrix factor = latent_->infer(x_block);
    for (std::size_t i = 0; i < crossed.size(); ++i) {
      crossed[i] *= 1.0f + factor[i];
    }
  }
  Matrix mlp_in = Matrix::concat_cols(crossed, x_block);
  Matrix hidden = w1_->infer(mlp_in);
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    hidden[i] = hidden[i] > 0 ? hidden[i] : 0.0f;
  }
  const Matrix logit = w2_->infer(hidden);  // [B x 1]
  std::vector<double> out(logit.rows());
  for (std::size_t b = 0; b < logit.rows(); ++b) out[b] = logit.at(b, 0);
  return out;
}

void RnnNetwork::deserialize(BinaryReader& reader) {
  nn::Module::deserialize(reader);
  if (quantized_ready()) prepare_quantized();
}

void RnnNetwork::prepare_quantized() {
  auto weights = std::make_unique<QuantizedNetworkWeights>();
  weights->cells.reserve(cells_.size());
  for (const auto& cell : cells_) {
    const auto* gru = dynamic_cast<const nn::GruCell*>(cell.get());
    if (gru == nullptr) {
      throw std::invalid_argument(
          "prepare_quantized: int8 serving supports the GRU cell only");
    }
    weights->cells.emplace_back(*gru);
  }
  if (latent_) weights->latent = std::make_unique<nn::QuantizedLinear>(*latent_);
  weights->w1 = std::make_unique<nn::QuantizedLinear>(*w1_);
  weights->w2 = std::make_unique<nn::QuantizedLinear>(*w2_);
  qweights_ = std::move(weights);
}

const QuantizedNetworkWeights& RnnNetwork::quantized_weights() const {
  if (!qweights_) {
    throw std::logic_error(
        "quantized_weights: call prepare_quantized() at load time first");
  }
  return *qweights_;
}

QuantizedInferenceState RnnNetwork::infer_initial_state_q8() const {
  QuantizedInferenceState state;
  state.layers.assign(cells_.size(),
                      tensor::QuantizedMatrix(1, config_.hidden_size));
  return state;
}

void RnnNetwork::infer_update_q8(QuantizedInferenceState& state,
                                 const Matrix& x) const {
  const QuantizedNetworkWeights& qw = quantized_weights();
  if (x.cols() != config_.update_input_size() ||
      x.rows() != state.hidden().rows()) {
    throw std::invalid_argument("infer_update_q8: input shape " +
                                x.shape_string() + " mismatches the state");
  }
  nn::QuantizedScratch& scratch = thread_scratch();
  const float* input = x.data();
  for (std::size_t l = 0; l < qw.cells.size(); ++l) {
    input = qw.cells[l].infer_step(state.layers[l], input, scratch);
  }
}

std::vector<double> RnnNetwork::infer_logits_q8(
    const tensor::QuantizedMatrix& h_block, const Matrix& x_block) const {
  const QuantizedNetworkWeights& qw = quantized_weights();
  const std::size_t B = h_block.rows();
  const std::size_t H = config_.hidden_size;
  const std::size_t P = config_.predict_input_size();
  const std::size_t M = config_.mlp_hidden;
  if (x_block.rows() != B || h_block.cols() != H || x_block.cols() != P) {
    throw std::invalid_argument("infer_logits_q8: shape mismatch");
  }
  // One fused pass per stage over the whole block, each product into the
  // scratch's i32 buffer; the dequant / bias / activation order is the
  // unfused chain's (qgemm's scale * float(acc), then + bias), so a row
  // scores the same alone or in any batch.
  nn::QuantizedScratch& s = thread_scratch();
  const std::size_t width = std::max(H + P, M);
  std::int8_t* q = s.sized(s.q, B * width);
  float* scale = s.sized(s.row_scale, B);
  std::int32_t* zp = s.sized(s.row_zero_point, B);
  std::int32_t* acc = s.sized(s.acc_x, B * std::max(H, M));
  float* act = s.sized(s.act, B * width);

  // Latent cross: h' = h ∘ (1 + L(x)). The stored int8 h enters only this
  // elementwise product, dequantized with its per-row scale; the L(x)
  // product itself is int8.
  if (config_.latent_cross) {
    for (std::size_t b = 0; b < B; ++b) {
      scale[b] = tensor::quantize_row(x_block.data() + b * P, q + b * P, P);
    }
    qw.latent->weight().multiply(q, B, acc);
  }
  for (std::size_t b = 0; b < B; ++b) {
    float* row = act + b * (H + P);
    if (config_.latent_cross) {
      const float sl = scale[b] * qw.latent->weight().scale();
      const float* bl = qw.latent->bias();
      for (std::size_t j = 0; j < H; ++j) {
        const float factor = sl * static_cast<float>(acc[b * H + j]) + bl[j];
        row[j] = h_block.dequant(b, j) * (1.0f + factor);
      }
    } else {
      for (std::size_t j = 0; j < H; ++j) row[j] = h_block.dequant(b, j);
    }
    std::memcpy(row + H, x_block.data() + b * P, P * sizeof(float));
  }

  // MLP head: activations are requantized per row in front of each int8
  // product; the ReLU output is one-sided so the affine form buys a bit.
  for (std::size_t b = 0; b < B; ++b) {
    scale[b] = tensor::quantize_row(act + b * (H + P), q + b * (H + P), H + P);
  }
  qw.w1->weight().multiply(q, B, acc);
  const float* b1 = qw.w1->bias();
  for (std::size_t b = 0; b < B; ++b) {
    const float s1 = scale[b] * qw.w1->weight().scale();
    float* hidden = act + b * M;
    for (std::size_t j = 0; j < M; ++j) {
      const float v = s1 * static_cast<float>(acc[b * M + j]) + b1[j];
      hidden[j] = v > 0 ? v : 0.0f;
    }
    tensor::quantize_row_affine(hidden, q + b * M, M, &scale[b], &zp[b]);
  }
  const tensor::QuantizedWeights& w2 = qw.w2->weight();
  w2.multiply(q, B, acc);
  std::vector<double> out(B);
  for (std::size_t b = 0; b < B; ++b) {
    const std::int32_t corrected = acc[b] - zp[b] * w2.col_sum(0);
    out[b] = (scale[b] * w2.scale()) * static_cast<float>(corrected) +
             qw.w2->bias()[0];
  }
  return out;
}

std::size_t RnnNetwork::predict_flops() const {
  const std::size_t pred_in = config_.predict_input_size();
  const std::size_t h = config_.hidden_size;
  std::size_t flops = 0;
  if (config_.latent_cross) flops += pred_in * h + h;
  flops += (h + pred_in) * config_.mlp_hidden;  // W1
  flops += config_.mlp_hidden;                  // W2
  return flops;
}

std::size_t RnnNetwork::update_flops() const {
  const std::size_t h = config_.hidden_size;
  std::size_t input = config_.update_input_size();
  std::size_t flops = 0;
  const std::size_t gates =
      config_.cell == nn::CellType::kGru ? 3 : (config_.cell == nn::CellType::kLstm ? 4 : 1);
  for (int l = 0; l < config_.num_layers; ++l) {
    flops += (input + h) * h * gates;
    input = h;
  }
  return flops;
}

}  // namespace pp::train
