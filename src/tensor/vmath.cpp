#include "tensor/vmath.hpp"

#include <cstdint>
#include <cstring>

#include "tensor/gemm.hpp"
#include "tensor/gemm_simd.hpp"

namespace pp::tensor {

namespace {

namespace vm = simd::vmath;

/// a < b ? a : b — the operand order of (v)minps, NaN included.
float min_ps(float a, float b) { return a < b ? a : b; }

float abs_bits(float x) {
  std::uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  bits &= 0x7fffffffu;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

/// exp(-t) for t in [0, kExpMaxArg].
float exp_neg(float t) {
  const float n = (t * vm::kLog2e + vm::kRound) - vm::kRound;
  float s = n * vm::kLn2Hi - t;
  s = s + n * vm::kLn2Lo;
  const float z = s * s;
  float p = vm::kExp0 * s + vm::kExp1;
  p = p * s + vm::kExp2;
  p = p * s + vm::kExp3;
  p = p * s + vm::kExp4;
  p = p * s + vm::kExp5;
  p = (p * z + s) + 1.0f;
  const std::uint32_t bits =
      static_cast<std::uint32_t>(127 - static_cast<std::int32_t>(n)) << 23;
  float scale;
  std::memcpy(&scale, &bits, sizeof(scale));
  return p * scale;
}

}  // namespace

float sigmoid_f32(float x) {
  if (x != x) return x;
  const float e = exp_neg(min_ps(abs_bits(x), vm::kExpMaxArg));
  return (x < 0.0f ? e : 1.0f) / (1.0f + e);
}

float tanh_f32(float x) {
  if (x != x) return x;
  const float t = abs_bits(x);
  float y;
  if (t < vm::kTanhSmall) {
    const float z = t * t;
    float p = vm::kTanh0 * z + vm::kTanh1;
    p = p * z - vm::kTanh2;
    p = p * z + vm::kTanh3;
    p = p * z - vm::kTanh4;
    y = p * z * t + t;
  } else {
    const float e = exp_neg(min_ps(t + t, vm::kExpMaxArg));
    y = (1.0f - e) / (1.0f + e);
  }
  std::uint32_t y_bits, x_bits;
  std::memcpy(&y_bits, &y, sizeof(y_bits));
  std::memcpy(&x_bits, &x, sizeof(x_bits));
  y_bits |= x_bits & 0x80000000u;
  std::memcpy(&y, &y_bits, sizeof(y));
  return y;
}

void sigmoid_f32(const float* x, float* y, std::size_t n) {
  if (gemm_dispatched_kernel() == GemmKernel::kSimd) {
    simd::sigmoid_f32_avx2(x, y, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) y[i] = sigmoid_f32(x[i]);
  }
}

void tanh_f32(const float* x, float* y, std::size_t n) {
  if (gemm_dispatched_kernel() == GemmKernel::kSimd) {
    simd::tanh_f32_avx2(x, y, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) y[i] = tanh_f32(x[i]);
  }
}

}  // namespace pp::tensor
