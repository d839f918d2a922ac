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

QuantizedLinear::QuantizedLinear(const Linear& layer)
    : weight_(layer.weight().value()), bias_(layer.bias().value()) {}

}  // namespace pp::nn
