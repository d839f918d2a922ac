// Parity and property tests for the GEMM kernels (tensor/gemm.hpp). The
// naive loops are the reference and the portable lane, checked against an
// independent double-precision product; the AVX2 kernels must agree with
// them bit-for-bit (the parity contract in gemm.hpp), on every shape and
// for concurrent callers, for f32 and int8 alike — including the full
// int8 range with the -128 maddubs edge case and non-finite B under the
// zero-skip contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tensor/cpu_dispatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"
#include "tensor/qgemm.hpp"
#include "util/rng.hpp"

namespace pp::tensor {
namespace {

struct GemmShape {
  std::size_t m, k, n;
};

// Degenerate (0-row / 1x1), tall/skinny, micro-kernel remainder (non
// multiples of 4), and blocking-boundary (crosses the 64/128/256 tiles)
// shapes.
const std::vector<GemmShape>& test_shapes() {
  static const std::vector<GemmShape> shapes = {
      {0, 3, 4},    {3, 0, 4},    {3, 4, 0},     {0, 0, 0},   {1, 1, 1},
      {1, 7, 3},    {4, 4, 4},    {5, 17, 9},    {2, 300, 2}, {300, 2, 3},
      {3, 2, 300},  {31, 100, 17}, {64, 64, 64}, {65, 129, 257},
      {7, 128, 130}, {128, 33, 8},
  };
  return shapes;
}

std::uint64_t shape_seed(const GemmShape& s) {
  return s.m * 1000003 + s.k * 1009 + s.n + 17;
}

/// Runs `product` on four threads at once and returns each caller's
/// result. Products run on the calling thread with thread-local scratch,
/// so callers that run in parallel (the trainer's per-user threads, the
/// threaded replay) must each get the bits of a sequential call.
template <typename Product>
auto on_concurrent_callers(const Product& product) {
  constexpr std::size_t kCallers = 4;
  std::vector<decltype(product())> results(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&results, &product, t] { results[t] = product(); });
  }
  for (std::thread& caller : callers) caller.join();
  return results;
}

/// Independent i-j-k reference (different loop order from every kernel).
Matrix reference_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

class GemmParity : public ::testing::TestWithParam<GemmShape> {};

// The naive loops against the independent double-precision product, so
// the bit-for-bit SIMD tests below compare against a checked reference.
// (Named for the cache-blocked kernel they once compared with naive; the
// names stay so these parametrized test ids stay continuous.)
TEST_P(GemmParity, BlockedMatchesNaive_NN) {
  const auto [m, k, n] = GetParam();
  Rng rng(shape_seed(GetParam()));
  const Matrix a = Matrix::randn(m, k, rng);
  const Matrix b = Matrix::randn(k, n, rng);
  Matrix c(m, n);
  gemm_nn_naive(a, b, c);
  EXPECT_TRUE(c.approx_equal(reference_matmul(a, b), 1e-3f));
}

TEST_P(GemmParity, BlockedMatchesNaive_TN) {
  const auto [m, k, n] = GetParam();
  Rng rng(shape_seed(GetParam()) ^ 0xabcd);
  const Matrix a = Matrix::randn(k, m, rng);  // c = a^T * b
  const Matrix b = Matrix::randn(k, n, rng);
  Matrix c(m, n);
  gemm_tn_naive(a, b, c);
  EXPECT_TRUE(c.approx_equal(reference_matmul(a.transposed(), b), 1e-3f));
}

TEST_P(GemmParity, BlockedMatchesNaive_NT) {
  const auto [m, k, n] = GetParam();
  Rng rng(shape_seed(GetParam()) ^ 0x1234);
  const Matrix a = Matrix::randn(m, k, rng);  // c = a * b^T
  const Matrix b = Matrix::randn(n, k, rng);
  Matrix c(m, n);
  gemm_nt_naive(a, b, c);
  EXPECT_TRUE(c.approx_equal(reference_matmul(a, b.transposed()), 1e-3f));
}

TEST_P(GemmParity, ThreadedMatchesSequentialBitForBit) {
  const auto [m, k, n] = GetParam();
  Rng rng(shape_seed(GetParam()) ^ 0x77);
  const Matrix a = Matrix::randn(m, k, rng);
  const Matrix b = Matrix::randn(k, n, rng);
  // The threads are the callers': each runs whole products, so every
  // kernel must give each of them the sequential bits.
  for (const GemmKernel kernel : {GemmKernel::kNaive, GemmKernel::kSimd}) {
    GemmConfigScope scope(kernel);
    const Matrix sequential = a.matmul(b);
    for (const Matrix& threaded :
         on_concurrent_callers([&a, &b] { return a.matmul(b); })) {
      EXPECT_EQ(sequential, threaded) << gemm_kernel_name(kernel);
    }
  }
}

TEST_P(GemmParity, MatmulEntryPointsAgreeAcrossKernels) {
  const auto [m, k, n] = GetParam();
  Rng rng(shape_seed(GetParam()) ^ 0xfeed);
  const Matrix a = Matrix::randn(m, k, rng);
  const Matrix b = Matrix::randn(k, n, rng);
  const Matrix at = a.transposed();
  const Matrix bt = b.transposed();

  Matrix naive_nn, naive_tn, naive_nt;
  {
    GemmConfigScope scope(GemmKernel::kNaive);
    naive_nn = a.matmul(b);
    naive_tn = at.matmul_transposed_self(b);
    naive_nt = a.matmul_transposed_other(bt);
  }
  GemmConfigScope scope(GemmKernel::kSimd);
  EXPECT_EQ(a.matmul(b), naive_nn);
  EXPECT_EQ(at.matmul_transposed_self(b), naive_tn);
  EXPECT_EQ(a.matmul_transposed_other(bt), naive_nt);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmParity,
                         ::testing::ValuesIn(test_shapes()),
                         [](const auto& info) {
                           return std::to_string(info.param.m) + "x" +
                                  std::to_string(info.param.k) + "x" +
                                  std::to_string(info.param.n);
                         });

TEST(Gemm, RandomizedShapesMatchReference) {
  Rng shape_rng(20260727);
  for (int trial = 0; trial < 25; ++trial) {
    const auto m = static_cast<std::size_t>(shape_rng.uniform_int(0, 70));
    const auto k = static_cast<std::size_t>(shape_rng.uniform_int(0, 150));
    const auto n = static_cast<std::size_t>(shape_rng.uniform_int(0, 70));
    Rng rng(shape_rng.fork());
    const Matrix a = Matrix::randn(m, k, rng);
    const Matrix b = Matrix::randn(k, n, rng);
    Matrix c_naive(m, n), c_simd(m, n);
    gemm_nn_naive(a, b, c_naive);
    gemm_nn_simd(a, b, c_simd);
    EXPECT_TRUE(c_naive.approx_equal(reference_matmul(a, b), 1e-3f))
        << "shape " << m << "x" << k << "x" << n;
    EXPECT_EQ(c_naive, c_simd) << "shape " << m << "x" << k << "x" << n;
  }
}

TEST(Gemm, DeterministicAcrossRepeatedRuns) {
  // Same seed -> bitwise-identical inputs and outputs: the
  // reproducibility contract the training seeds rely on.
  for (const GemmKernel kernel : {GemmKernel::kNaive, GemmKernel::kSimd}) {
    auto run = [kernel] {
      Rng rng(42);
      const Matrix a = Matrix::randn(37, 53, rng);
      const Matrix b = Matrix::randn(53, 29, rng);
      GemmConfigScope scope(kernel);
      return a.matmul(b);
    };
    EXPECT_EQ(run(), run()) << gemm_kernel_name(kernel);
  }
}

TEST(Gemm, AccumulatesIntoExistingOutput) {
  Rng rng(7);
  const Matrix a = Matrix::randn(6, 9, rng);
  const Matrix b = Matrix::randn(9, 5, rng);
  Matrix expected = reference_matmul(a, b);
  expected.add_inplace(Matrix::ones(6, 5));
  for (const auto gemm : {gemm_nn_naive, gemm_nn_simd}) {
    Matrix c = Matrix::ones(6, 5);
    gemm(a, b, c);
    EXPECT_TRUE(c.approx_equal(expected, 1e-3f));
  }
}

TEST(Gemm, BatchedRowsMatchSingleRowProducts) {
  // The invariant behind batched scoring: row b of a [B x d] product is
  // bit-identical to the same row scored as [1 x d].
  Rng rng(11);
  const Matrix x = Matrix::randn(17, 64, rng);
  const Matrix w = Matrix::randn(64, 32, rng);
  const Matrix batched = x.matmul(w);
  for (std::size_t b = 0; b < x.rows(); ++b) {
    Matrix row(1, x.cols());
    for (std::size_t j = 0; j < x.cols(); ++j) row[j] = x.at(b, j);
    const Matrix single = row.matmul(w);
    for (std::size_t j = 0; j < w.cols(); ++j) {
      EXPECT_EQ(single[j], batched.at(b, j)) << "row " << b << " col " << j;
    }
  }
}

// ---- int8 qgemm kernels ----------------------------------------------------

/// Random int8 values in [-127, 127].
std::vector<std::int8_t> random_int8(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  return v;
}

class QGemmParity : public ::testing::TestWithParam<GemmShape> {};

TEST_P(QGemmParity, BlockedAndThreadedMatchNaiveExactly) {
  // Integer accumulation is exact, so naive and simd must be identical
  // — no float-tolerance escape hatch — on one caller and on concurrent
  // ones. (The name is historical, like GemmParity.BlockedMatchesNaive_*.)
  const GemmShape s = GetParam();
  Rng rng(shape_seed(s) ^ 0x1111);
  const auto a = random_int8(s.m * s.k, rng);
  const auto b = random_int8(s.k * s.n, rng);
  const auto simd = [&a, &b, s] {
    std::vector<std::int32_t> c(s.m * s.n, 0);
    qgemm_nn_i32_simd(a.data(), b.data(), c.data(), s.m, s.k, s.n);
    return c;
  };
  std::vector<std::int32_t> c_naive(s.m * s.n, 0);
  qgemm_nn_i32_naive(a.data(), b.data(), c_naive.data(), s.m, s.k, s.n);
  EXPECT_EQ(c_naive, simd());
  for (const auto& c_threaded : on_concurrent_callers(simd)) {
    EXPECT_EQ(c_naive, c_threaded);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, QGemmParity,
                         ::testing::ValuesIn(test_shapes()),
                         [](const auto& info) {
                           return "m" + std::to_string(info.param.m) + "_k" +
                                  std::to_string(info.param.k) + "_n" +
                                  std::to_string(info.param.n);
                         });

TEST(QGemm, MatchesDequantizedReferenceProduct) {
  // qgemm(A, W) must equal sa(i) * sw * sum(qa * qw) computed exactly in
  // double — the dequantizing epilogue is one float multiply per element.
  Rng rng(91);
  const Matrix a = Matrix::randn(5, 37, rng);
  const Matrix w = Matrix::randn(37, 11, rng);
  const QuantizedMatrix qa = QuantizedMatrix::quantize_rows(a);
  const QuantizedMatrix qw = QuantizedMatrix::quantize(w);
  const Matrix out = qgemm(qa, qw);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 11; ++j) {
      double acc = 0;
      for (std::size_t p = 0; p < 37; ++p) {
        acc += static_cast<double>(qa.data()[i * 37 + p]) *
               qw.data()[p * 11 + j];
      }
      const float expected = static_cast<float>(qa.scale(i)) * qw.scale() *
                             static_cast<float>(acc);
      EXPECT_FLOAT_EQ(out.at(i, j), expected) << i << "," << j;
    }
  }
  // And the whole thing approximates the f32 product of the dequantized
  // operands (sanity on the affine algebra, loose float tolerance).
  const Matrix ref = reference_matmul(qa.dequantize(), qw.dequantize());
  EXPECT_TRUE(out.approx_equal(ref, 1e-3f));
}

TEST(QGemm, AffineZeroPointCorrectionIsExact) {
  // One-sided activations (ReLU output shape) use per-row affine
  // quantization; the column-sum correction must reproduce
  // sum((qa - za) * qw) exactly.
  Rng rng(93);
  Matrix a = Matrix::rand_uniform(4, 29, rng, 0.0f, 3.0f);
  a.at(2, 5) = 0.0f;  // exact zero stays exact under the nudged range
  const Matrix w = Matrix::randn(29, 7, rng);
  const QuantizedMatrix qa = QuantizedMatrix::quantize_rows_affine(a);
  EXPECT_FALSE(qa.symmetric());  // the correction path actually runs
  const QuantizedMatrix qw = QuantizedMatrix::quantize(w);
  const Matrix out = qgemm(qa, qw);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 7; ++j) {
      double acc = 0;
      for (std::size_t p = 0; p < 29; ++p) {
        acc += static_cast<double>(qa.data()[i * 29 + p] - qa.zero_point(i)) *
               qw.data()[p * 7 + j];
      }
      const float expected = static_cast<float>(qa.scale(i)) * qw.scale() *
                             static_cast<float>(acc);
      EXPECT_FLOAT_EQ(out.at(i, j), expected) << i << "," << j;
    }
  }
}

TEST(QGemm, RejectsNonSymmetricOrMismatchedOperands) {
  Rng rng(95);
  const Matrix a = Matrix::rand_uniform(2, 8, rng, 0.0f, 1.0f);
  const Matrix w = Matrix::randn(8, 3, rng);
  const QuantizedMatrix qa = QuantizedMatrix::quantize_rows(a);
  const QuantizedMatrix qw = QuantizedMatrix::quantize(w);
  // B with per-row zero points is not a weight tensor.
  const QuantizedMatrix bad_b = QuantizedMatrix::quantize_rows_affine(w);
  EXPECT_THROW(qgemm(qa, bad_b), std::invalid_argument);
  const QuantizedMatrix wrong_k = QuantizedMatrix::quantize(
      Matrix::randn(9, 3, rng));
  EXPECT_THROW(qgemm(qa, wrong_k), std::invalid_argument);
}

// ---- SIMD kernel parity ----------------------------------------------------

TEST_P(GemmParity, SimdMatchesNaiveBitForBit_NN) {
  const auto [m, k, n] = GetParam();
  Rng rng(shape_seed(GetParam()) ^ 0x51);
  const Matrix a = Matrix::randn(m, k, rng);
  const Matrix b = Matrix::randn(k, n, rng);
  Matrix c_naive(m, n), c_simd(m, n);
  gemm_nn_naive(a, b, c_naive);
  gemm_nn_simd(a, b, c_simd);  // falls back to naive off-AVX2; same bits
  EXPECT_EQ(c_naive, c_simd);
}

TEST_P(GemmParity, SimdMatchesNaiveBitForBit_TN) {
  const auto [m, k, n] = GetParam();
  Rng rng(shape_seed(GetParam()) ^ 0x52);
  const Matrix a = Matrix::randn(k, m, rng);
  const Matrix b = Matrix::randn(k, n, rng);
  Matrix c_naive(m, n), c_simd(m, n);
  gemm_tn_naive(a, b, c_naive);
  gemm_tn_simd(a, b, c_simd);
  EXPECT_EQ(c_naive, c_simd);
}

TEST_P(GemmParity, SimdMatchesNaiveBitForBit_NT) {
  const auto [m, k, n] = GetParam();
  Rng rng(shape_seed(GetParam()) ^ 0x53);
  const Matrix a = Matrix::randn(m, k, rng);
  const Matrix b = Matrix::randn(n, k, rng);
  Matrix c_naive(m, n), c_simd(m, n);
  gemm_nt_naive(a, b, c_naive);
  gemm_nt_simd(a, b, c_simd);
  EXPECT_EQ(c_naive, c_simd);
}

// ---- dispatch matrix sweep -------------------------------------------------
// The SIMD kernels must produce the naive kernel's bits on odd /
// remainder-heavy shapes: the micro-kernel edges (6-row f32 blocks,
// 16-column panels, 4-byte k-quads) all see partial tiles here.

TEST(GemmDispatchMatrix, AllKernelsAndThreadCountsBitExactF32) {
  constexpr std::size_t kOddK = 33;  // 8 full k-quads + 1, odd
  for (const std::size_t m : {1u, 5u, 6u, 7u, 17u}) {
    for (const std::size_t n : {1u, 15u, 16u, 17u, 31u}) {
      Rng rng(m * 131 + n * 7 + 5);
      const Matrix a = Matrix::randn(m, kOddK, rng);
      const Matrix b = Matrix::randn(kOddK, n, rng);
      const Matrix at = a.transposed();
      const Matrix bt = b.transposed();
      Matrix ref_nn, ref_tn, ref_nt;
      {
        GemmConfigScope scope(GemmKernel::kNaive);
        ref_nn = a.matmul(b);
        ref_tn = at.matmul_transposed_self(b);
        ref_nt = a.matmul_transposed_other(bt);
      }
      GemmConfigScope scope(GemmKernel::kSimd);
      EXPECT_EQ(ref_nn, a.matmul(b)) << "nn " << m << "x" << kOddK << "x" << n;
      EXPECT_EQ(ref_tn, at.matmul_transposed_self(b))
          << "tn " << m << "x" << kOddK << "x" << n;
      EXPECT_EQ(ref_nt, a.matmul_transposed_other(bt))
          << "nt " << m << "x" << kOddK << "x" << n;
    }
  }
}

/// Random int8 over the FULL range [-128, 127] — exercises the maddubs
/// -128 edge the SIMD kernel's halved-operand trick exists for.
std::vector<std::int8_t> random_int8_full(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  return v;
}

TEST(GemmDispatchMatrix, QGemmKernelsBitExactOverFullInt8Range) {
  for (const std::size_t m : {1u, 5u, 6u, 7u, 17u}) {
    for (const std::size_t n : {1u, 15u, 16u, 17u, 31u}) {
      for (const std::size_t k : {5u, 33u}) {
        Rng rng(m * 977 + n * 31 + k);
        const auto a = random_int8_full(m * k, rng);
        const auto b = random_int8_full(k * n, rng);
        std::vector<std::int32_t> ref(m * n, 0);
        qgemm_nn_i32_naive(a.data(), b.data(), ref.data(), m, k, n);
        std::vector<std::int32_t> out(m * n, 0);
        qgemm_nn_i32_simd(a.data(), b.data(), out.data(), m, k, n);
        EXPECT_EQ(ref, out) << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(QGemm, SimdSwizzleBiasCorrectionAtMinusOneTwentyEight) {
  // Worst case for the u8 x s8 swizzle: A = -128 maps to au = 0 (an
  // entirely bias-carried value) and A = 127 to au = 255 against B = -128
  // — the pair products a saturating vpmaddubsw implementation would
  // corrupt. Sweep k across quad boundaries so padded quads are hit too,
  // and both row counts: m = 11 takes the packed maddubs panel kernel,
  // m = 3 the pack-free vpmullw row path for gemv-shaped products.
  for (const std::size_t m : {3u, 11u}) {
    for (const std::size_t k : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 64u}) {
      const std::size_t n = 17;
      std::vector<std::int8_t> a(m * k), b(k * n);
      for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = (i % 3 == 0)
                   ? std::int8_t{-128}
                   : ((i % 3 == 1) ? std::int8_t{127} : std::int8_t{1});
      }
      for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = (i % 2 == 0) ? std::int8_t{-128} : std::int8_t{127};
      }
      std::vector<std::int32_t> ref(m * n, 0), out(m * n, 0);
      qgemm_nn_i32_naive(a.data(), b.data(), ref.data(), m, k, n);
      qgemm_nn_i32_simd(a.data(), b.data(), out.data(), m, k, n);
      EXPECT_EQ(ref, out) << "m=" << m << " k=" << k;
    }
  }
}

TEST(QGemm, QuantizationCodecParityAcrossKernels) {
  // The quantize/dequantize loops run through AVX2 codec kernels when the
  // dispatched GEMM kernel is simd (qgemm.cpp). They must be bit-exact to
  // the scalar codec — same scales, same bytes, same zero points — across
  // ordinary values and the specials the codec pins: NaN (-> 0 / zero
  // point), ±Inf (saturates), denormals (scale clamp), and -0.0f.
  if (!gemm_simd_available()) GTEST_SKIP() << "no simd kernels on this host";
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kDen = std::numeric_limits<float>::denorm_min();
  for (const std::size_t cols : {1u, 7u, 8u, 9u, 31u, 64u}) {
    Rng rng(cols * 17 + 3);
    Matrix m(5, cols);
    for (std::size_t i = 0; i < m.size(); ++i) {
      m[i] = static_cast<float>(rng.normal()) * 3.0f;
    }
    m.at(1, 0) = kNan;
    m.at(2, cols - 1) = kInf;
    m.at(3, 0) = -kInf;
    m.at(4, cols - 1) = kDen;
    m.at(0, 0) = -0.0f;
    QuantizedMatrix q_simd, qr_simd, qa_simd;
    {
      GemmConfigScope scope(GemmKernel::kSimd);
      q_simd = QuantizedMatrix::quantize(m);
      qr_simd = QuantizedMatrix::quantize_rows(m);
      qa_simd = QuantizedMatrix::quantize_rows_affine(m);
    }
    GemmConfigScope scope(GemmKernel::kNaive);
    const QuantizedMatrix q = QuantizedMatrix::quantize(m);
    const QuantizedMatrix qr = QuantizedMatrix::quantize_rows(m);
    const QuantizedMatrix qa = QuantizedMatrix::quantize_rows_affine(m);
    for (std::size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(q.scale(r), q_simd.scale(r)) << "cols=" << cols;
      EXPECT_EQ(qr.scale(r), qr_simd.scale(r)) << "cols=" << cols;
      EXPECT_EQ(qa.scale(r), qa_simd.scale(r)) << "cols=" << cols;
      EXPECT_EQ(qa.zero_point(r), qa_simd.zero_point(r)) << "cols=" << cols;
      for (std::size_t c = 0; c < cols; ++c) {
        EXPECT_EQ(q.row_data(r)[c], q_simd.row_data(r)[c])
            << "quantize cols=" << cols << " (" << r << "," << c << ")";
        EXPECT_EQ(qr.row_data(r)[c], qr_simd.row_data(r)[c])
            << "quantize_rows cols=" << cols << " (" << r << "," << c << ")";
        EXPECT_EQ(qa.row_data(r)[c], qa_simd.row_data(r)[c])
            << "affine cols=" << cols << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST(QGemm, FullProductBitExactAcrossDispatchedKernels) {
  // End-to-end qgemm (quantize epilogue included): forcing the portable
  // kernel must reproduce the dispatch-selected result bit for bit.
  Rng rng(99);
  Matrix a(6, 40), w(40, 24);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.normal());
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(rng.normal());
  }
  Matrix out_simd, out_naive;
  {
    GemmConfigScope scope(GemmKernel::kSimd);
    out_simd = qgemm(QuantizedMatrix::quantize_rows(a),
                     QuantizedMatrix::quantize(w));
  }
  {
    GemmConfigScope scope(GemmKernel::kNaive);
    out_naive = qgemm(QuantizedMatrix::quantize_rows(a),
                      QuantizedMatrix::quantize(w));
  }
  EXPECT_EQ(out_simd, out_naive);
}

// ---- zero-skip vs non-finite B ---------------------------------------------

/// Bit-pattern equality: NaN-safe, distinguishes ±0 — exactly the
/// "identical bits" the parity contract promises.
bool bits_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(Gemm, ZeroSkipParityWithNonFiniteB) {
  // The pinned semantics for non-finite B (gemm.hpp): zero A entries
  // contribute nothing, nonzero A entries propagate Inf/NaN — identically
  // in every kernel, because all of them skip at per-(row, p) granularity.
  // A kernel that skipped per group of rows would turn a skipped 0 * Inf
  // into NaN whenever a sibling row was nonzero at the same p. (Raw kernel
  // entry points: the matmul dispatchers assert finite B in debug builds.)
  constexpr std::size_t m = 13, k = 9, n = 19;
  Rng rng(20260808);
  Matrix a = Matrix::randn(m, k, rng);
  // Mixed zero/nonzero scatter: every group of rows has rows that disagree
  // about zeroness at some p.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      if ((i + p) % 3 == 0) a.at(i, p) = 0.0f;
    }
  }
  Matrix b = Matrix::randn(k, n, rng);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  b.at(3, 0) = inf;
  b.at(3, 5) = nan;
  b.at(3, 17) = -inf;
  b.at(7, 2) = nan;
  b.at(7, 16) = inf;

  Matrix c_naive(m, n), c_simd(m, n);
  gemm_nn_naive(a, b, c_naive);
  gemm_nn_simd(a, b, c_simd);
  EXPECT_TRUE(bits_equal(c_naive, c_simd));
  // Rows whose A entries are zero at every non-finite p stay finite.
  for (std::size_t i = 0; i < m; ++i) {
    if (a.at(i, 3) == 0.0f && a.at(i, 7) == 0.0f) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_TRUE(std::isfinite(c_naive.at(i, j))) << i << "," << j;
      }
    }
  }

  // Same contract on the tn path (A is [k x m] there).
  const Matrix at = a.transposed();
  Matrix t_naive(m, n), t_simd(m, n);
  gemm_tn_naive(at, b, t_naive);
  gemm_tn_simd(at, b, t_simd);
  EXPECT_TRUE(bits_equal(t_naive, t_simd));
}

// ---- gemv over a nonzero list (the fused f32 head) ------------------------

TEST(GemvNz, EveryLaneMatchesTheNnProduct) {
  // The fused f32 head's primitive: a row's ascending nonzero list against
  // a [k x n] weight must give the nn product of the whole row (zero-skip,
  // +0.0f start, ascending chain) bit for bit on every kernel: naive runs
  // the portable lane, simd the AVX2 one. n covers 64-column passes,
  // narrower passes and scalar column tails; the row holds +0 and -0
  // entries, and the empty list is included.
  for (const std::size_t n : {1u, 7u, 8u, 9u, 17u, 33u, 63u, 64u, 65u, 128u,
                              131u, 200u}) {
    for (const std::size_t k : {1u, 19u, 160u}) {
      for (const double density : {0.0, 0.05, 0.5, 1.0}) {
        Rng rng(shape_seed({k, n, static_cast<std::size_t>(density * 100)}));
        const Matrix w = Matrix::randn(k, n, rng);
        Matrix a(1, k);
        std::vector<float> vals;
        std::vector<std::uint32_t> rows;
        for (std::size_t p = 0; p < k; ++p) {
          if (rng.uniform() < density) {
            a[p] = static_cast<float>(rng.normal());
            vals.push_back(a[p]);
            rows.push_back(static_cast<std::uint32_t>(p));
          } else {
            a[p] = p % 2 == 0 ? 0.0f : -0.0f;
          }
        }
        Matrix want(1, n);
        gemm_nn_naive(a, w, want);
        const std::string where = "n=" + std::to_string(n) +
                                  " k=" + std::to_string(k) +
                                  " nnz=" + std::to_string(vals.size());
        for (const GemmKernel kernel :
             {GemmKernel::kNaive, GemmKernel::kSimd}) {
          GemmConfigScope scope(kernel);
          std::vector<float> got(n, std::numeric_limits<float>::quiet_NaN());
          gemv_nz(vals.data(), rows.data(), vals.size(), w.data(), k, n,
                  got.data());
          EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
              << gemm_kernel_name(gemm_dispatched_kernel()) << " " << where;
        }
      }
    }
  }
}

// ---- dispatch resolution ---------------------------------------------------

TEST(Gemm, DispatchResolutionInvariants) {
  // kAuto is a configuration value, never a dispatch result.
  EXPECT_NE(gemm_dispatched_kernel(), GemmKernel::kAuto);
  {
    GemmConfigScope scope(GemmKernel::kNaive);
    EXPECT_EQ(gemm_dispatched_kernel(), GemmKernel::kNaive);
  }
  {
    // kSimd degrades to kNaive when the host or build can't run it.
    GemmConfigScope scope(GemmKernel::kSimd);
    EXPECT_EQ(gemm_dispatched_kernel(), gemm_simd_available()
                                            ? GemmKernel::kSimd
                                            : GemmKernel::kNaive);
  }
  // A forced run (PP_GEMM_FORCE_KERNEL, as ci/check.sh's portable lane
  // sets it) must dispatch the forced kernel under kAuto, naive where
  // simd cannot run, or it proves nothing.
  const char* forced = std::getenv("PP_GEMM_FORCE_KERNEL");
  if (forced != nullptr && *forced != '\0') {
    GemmConfigScope scope(GemmKernel::kAuto);
    const bool simd = std::string(forced) == "simd" && gemm_simd_available();
    EXPECT_EQ(gemm_dispatched_kernel(),
              simd ? GemmKernel::kSimd : GemmKernel::kNaive)
        << "PP_GEMM_FORCE_KERNEL=" << forced;
  }
  // gemm_simd_available() implies both the runtime and compile-time legs.
  if (gemm_simd_available()) {
    EXPECT_TRUE(simd_kernels_compiled());
    EXPECT_EQ(detected_cpu_isa(), CpuIsa::kAvx2Fma);
  }
}

TEST(GemmDeathTest, UnknownForcedKernelThrows) {
  // Only naive and simd are accepted: a retired or misspelled kernel name
  // must not silently run the default lane. The child sets the variable,
  // so this process's environment is never written.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* value : {"blocked", "Naive", "simd2"}) {
    EXPECT_EXIT(
        {
          setenv("PP_GEMM_FORCE_KERNEL", value, 1);
          GemmKernel kernel = GemmKernel::kAuto;
          try {
            gemm_kernel_from_env(&kernel);
          } catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "%s\n", e.what());
            std::exit(3);
          }
          std::exit(0);
        },
        ::testing::ExitedWithCode(3),
        std::string("PP_GEMM_FORCE_KERNEL=") + value +
            ": expected naive or simd")
        << value;
  }
  EXPECT_EXIT(
      {
        setenv("PP_GEMM_FORCE_KERNEL", "naive", 1);
        GemmKernel kernel = GemmKernel::kAuto;
        std::exit(gemm_kernel_from_env(&kernel) &&
                          kernel == GemmKernel::kNaive
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Gemm, ConfigScopeRestoresGlobals) {
  const GemmKernel kernel_before = gemm_kernel();
  {
    GemmConfigScope scope(GemmKernel::kNaive);
    EXPECT_EQ(gemm_kernel(), GemmKernel::kNaive);
  }
  EXPECT_EQ(gemm_kernel(), kernel_before);
  // Products always run on the calling thread.
  EXPECT_EQ(gemm_threads(), 1u);
}

}  // namespace
}  // namespace pp::tensor
