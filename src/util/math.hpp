// Numerically stable scalar helpers shared across models and evaluation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace pp {

/// Logistic sigmoid, stable for large |x|.
inline double sigmoid(double x) noexcept {
  if (x >= 0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

/// log(1 + e^x) without overflow.
inline double log1p_exp(double x) noexcept {
  return x > 0 ? x + std::log1p(std::exp(-x)) : std::log1p(std::exp(x));
}

/// Binary cross-entropy from a logit: -[y*log p + (1-y)*log(1-p)] with
/// p = sigmoid(logit), computed without forming p.
inline double bce_from_logit(double logit, double label) noexcept {
  return log1p_exp(logit) - label * logit;
}

/// Binary cross-entropy from a probability, clamped away from {0,1}.
inline double bce_from_prob(double p, double label,
                            double eps = 1e-12) noexcept {
  p = std::clamp(p, eps, 1.0 - eps);
  return -(label * std::log(p) + (1.0 - label) * std::log1p(-p));
}

/// Inverse sigmoid with clamping; useful to seed logit-space biases from an
/// observed positive rate.
inline double logit(double p, double eps = 1e-12) noexcept {
  p = std::clamp(p, eps, 1.0 - eps);
  return std::log(p / (1.0 - p));
}

}  // namespace pp
