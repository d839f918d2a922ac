// Fully-connected layer y = x W + b with W stored [in x out] so the forward
// pass is a single row-major matmul over [batch x in] inputs. QuantizedLinear
// is its int8 serving twin: the weight is quantized and packed once
// (tensor::QuantizedWeights, per-tensor symmetric), inputs arrive
// pre-quantized per row, and the products run on the int8 kernels — no f32
// weight matrix exists at serve time.
#pragma once

#include "autograd/ops.hpp"
#include "nn/module.hpp"
#include "tensor/qgemm.hpp"
#include "util/rng.hpp"

namespace pp::nn {

class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
         std::string name = "linear");

  /// x: [batch x in] -> [batch x out].
  Variable forward(const Variable& x) const;

  /// Tape-free forward over raw matrices (serving path).
  tensor::Matrix infer(const tensor::Matrix& x) const;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  const Variable& weight() const { return weight_; }
  const Variable& bias() const { return bias_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Variable weight_;  // [in x out]
  Variable bias_;    // [1 x out]
};

/// Int8 replica of a Linear layer for the quantized serving path. Built
/// once at load; the f32 weight is consumed into an int8 tensor and the
/// bias stays f32 (added after the dequantizing epilogue, the usual int8
/// inference convention). The fused serving head
/// (RnnNetwork::infer_logits_q8) runs weight().multiply() directly.
class QuantizedLinear {
 public:
  explicit QuantizedLinear(const Linear& layer);

  /// x: pre-quantized [batch x in] -> f32 [batch x out] through qgemm().
  /// Row b of a batch equals the same row inferred alone (per-row
  /// quantization upstream + exact integer accumulation).
  tensor::Matrix infer(const tensor::QuantizedMatrix& x) const;

  std::size_t in_features() const { return weight_.rows(); }
  std::size_t out_features() const { return weight_.cols(); }
  const tensor::QuantizedWeights& weight() const { return weight_; }
  const float* bias() const { return bias_.data(); }

 private:
  tensor::QuantizedWeights weight_;  // int8 [in x out]
  tensor::Matrix bias_;              // f32 [1 x out]
};

}  // namespace pp::nn
