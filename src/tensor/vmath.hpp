// f32 logistic sigmoid and tanh for the gates of every inference cell in
// both precisions (the f32 GRU, LSTM and tanh cells and the int8 GRU),
// written once as a portable scalar function and again as an AVX2 lane
// (qgemm_avx2.cpp) that returns the same bits.
//
// Both run the same sequence of IEEE operations: separate mul and
// add (-ffp-contract=off in every TU that implements one), division,
// round-to-nearest through the 1.5 * 2^23 magic constant, and 2^-n built
// from exponent bits. Nothing is left to libm, so the choice of kernel
// never changes a gate value.
//
//   sigmoid(x) = (x < 0 ? e : 1) / (1 + e),  e = exp(-min(|x|, 87))
//   tanh(x)    = sign(x) * |x| * (1 + z * P(z)), z = x^2     for |x| < 0.625
//              = sign(x) * (1 - e) / (1 + e),  e = exp(-min(2|x|, 87))
//
// exp(-t) is the Cephes expf reduction: t = n ln2 - s with n rounded to
// nearest, a degree-5 polynomial in s, and the exponent field set to
// 127 - n. The tanh polynomial below 0.625 is Cephes tanhf's.
//
// Accuracy against a double-precision reference, pinned by a dense sweep
// in tests/quantized_inference_test.cpp: sigmoid within 3 ulp on
// [-87, 87] and tanh within 2 ulp on [-9, 9] (sweeps of every 11th and
// every 61st float measured at most 2.33 and 1.50 ulp). Outside those
// ranges the results saturate: sigmoid(x >= 17) and tanh(|x| >= 9.1)
// round to exactly 1 (or -1), and sigmoid(x <= -87) returns sigmoid(-87),
// about 1.6e-38. sigmoid(±0) = 0.5, tanh keeps the sign of ±0, ±Inf map
// to the saturated values, and a NaN input is returned unchanged.
#pragma once

#include <cstddef>

namespace pp::tensor {

/// The portable scalar twin of the vector lane.
float sigmoid_f32(float x);
float tanh_f32(float x);

/// y[i] = sigmoid_f32(x[i]) / tanh_f32(x[i]) for i < n; x may alias y.
/// Runs the AVX2 lane under the kSimd GEMM kernel (AVX-512 hosts
/// included) and the scalar twin under kNaive — bit-identical either
/// way.
void sigmoid_f32(const float* x, float* y, std::size_t n);
void tanh_f32(const float* x, float* y, std::size_t n);

}  // namespace pp::tensor
