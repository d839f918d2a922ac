#include "nn/linear.hpp"

namespace pp::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
               std::string name)
    : in_(in_features), out_(out_features) {
  weight_ = register_parameter(name + ".weight",
                               Matrix::xavier(in_features, out_features, rng));
  bias_ = register_parameter(name + ".bias", Matrix::zeros(1, out_features));
}

Variable Linear::forward(const Variable& x) const {
  return autograd::add_broadcast(autograd::matmul(x, weight_), bias_);
}

tensor::Matrix Linear::infer(const tensor::Matrix& x) const {
  tensor::Matrix out = x.matmul(weight_.value());
  out.add_row_broadcast_inplace(bias_.value());
  return out;
}

QuantizedLinear::QuantizedLinear(const Linear& layer)
    : weight_(layer.weight().value()), bias_(layer.bias().value()) {}

tensor::Matrix QuantizedLinear::infer(const tensor::QuantizedMatrix& x) const {
  tensor::Matrix out = tensor::qgemm(x, weight_.matrix());
  out.add_row_broadcast_inplace(bias_);
  return out;
}

}  // namespace pp::nn
