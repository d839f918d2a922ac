// Parity and property tests for the blocked / SIMD / threaded GEMM
// kernels (tensor/gemm.hpp). The naive loops are the reference; the
// blocked and AVX2 kernels must agree with them bit-for-bit (the parity
// contract in gemm.hpp), on every shape and under every thread count,
// for f32 and int8 alike — including the full int8 range with the -128
// maddubs edge case and non-finite B under the zero-skip contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
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

TEST_P(GemmParity, BlockedMatchesNaive_NN) {
  const auto [m, k, n] = GetParam();
  Rng rng(shape_seed(GetParam()));
  const Matrix a = Matrix::randn(m, k, rng);
  const Matrix b = Matrix::randn(k, n, rng);
  Matrix c_naive(m, n), c_blocked(m, n);
  gemm_nn_naive(a, b, c_naive);
  gemm_nn_blocked(a, b, c_blocked);
  EXPECT_TRUE(c_blocked.approx_equal(c_naive, 1e-4f));
  EXPECT_TRUE(c_blocked.approx_equal(reference_matmul(a, b), 1e-3f));
}

TEST_P(GemmParity, BlockedMatchesNaive_TN) {
  const auto [m, k, n] = GetParam();
  Rng rng(shape_seed(GetParam()) ^ 0xabcd);
  const Matrix a = Matrix::randn(k, m, rng);  // c = a^T * b
  const Matrix b = Matrix::randn(k, n, rng);
  Matrix c_naive(m, n), c_blocked(m, n);
  gemm_tn_naive(a, b, c_naive);
  gemm_tn_blocked(a, b, c_blocked);
  EXPECT_TRUE(c_blocked.approx_equal(c_naive, 1e-4f));
  EXPECT_TRUE(
      c_blocked.approx_equal(reference_matmul(a.transposed(), b), 1e-3f));
}

TEST_P(GemmParity, BlockedMatchesNaive_NT) {
  const auto [m, k, n] = GetParam();
  Rng rng(shape_seed(GetParam()) ^ 0x1234);
  const Matrix a = Matrix::randn(m, k, rng);  // c = a * b^T
  const Matrix b = Matrix::randn(n, k, rng);
  Matrix c_naive(m, n), c_blocked(m, n);
  gemm_nt_naive(a, b, c_naive);
  gemm_nt_blocked(a, b, c_blocked);
  EXPECT_TRUE(c_blocked.approx_equal(c_naive, 1e-4f));
  EXPECT_TRUE(
      c_blocked.approx_equal(reference_matmul(a, b.transposed()), 1e-3f));
}

TEST_P(GemmParity, ThreadedMatchesSequentialBitForBit) {
  const auto [m, k, n] = GetParam();
  Rng rng(shape_seed(GetParam()) ^ 0x77);
  const Matrix a = Matrix::randn(m, k, rng);
  const Matrix b = Matrix::randn(k, n, rng);

  Matrix sequential;
  {
    GemmConfigScope scope(GemmKernel::kBlocked, 1);
    sequential = a.matmul(b);
  }
  Matrix threaded;
  {
    // Threshold 0 forces the threaded path even for tiny products.
    GemmConfigScope scope(GemmKernel::kBlocked, 4, 0);
    threaded = a.matmul(b);
  }
  // Row stripes never change the per-element accumulation order, so the
  // results are identical bits, not just approximately equal.
  EXPECT_EQ(sequential, threaded);
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
    GemmConfigScope scope(GemmKernel::kNaive, 1);
    naive_nn = a.matmul(b);
    naive_tn = at.matmul_transposed_self(b);
    naive_nt = a.matmul_transposed_other(bt);
  }
  GemmConfigScope scope(GemmKernel::kBlocked, 1);
  EXPECT_TRUE(a.matmul(b).approx_equal(naive_nn, 1e-4f));
  EXPECT_TRUE(at.matmul_transposed_self(b).approx_equal(naive_tn, 1e-4f));
  EXPECT_TRUE(a.matmul_transposed_other(bt).approx_equal(naive_nt, 1e-4f));
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
    Matrix c_naive(m, n), c_blocked(m, n);
    gemm_nn_naive(a, b, c_naive);
    gemm_nn_blocked(a, b, c_blocked);
    EXPECT_TRUE(c_blocked.approx_equal(c_naive, 1e-4f))
        << "shape " << m << "x" << k << "x" << n;
  }
}

TEST(Gemm, DeterministicAcrossRepeatedRuns) {
  // Same seed -> bitwise-identical inputs and outputs, with and without
  // threading: the reproducibility contract the training seeds rely on.
  auto run = [](std::size_t threads) {
    Rng rng(42);
    const Matrix a = Matrix::randn(37, 53, rng);
    const Matrix b = Matrix::randn(53, 29, rng);
    GemmConfigScope scope(GemmKernel::kBlocked, threads, 0);
    return a.matmul(b);
  };
  const Matrix first = run(1);
  EXPECT_EQ(first, run(1));
  EXPECT_EQ(first, run(3));
  EXPECT_EQ(first, run(8));
}

TEST(Gemm, AccumulatesIntoExistingOutput) {
  Rng rng(7);
  const Matrix a = Matrix::randn(6, 9, rng);
  const Matrix b = Matrix::randn(9, 5, rng);
  Matrix c = Matrix::ones(6, 5);
  gemm_nn_blocked(a, b, c);
  Matrix expected = reference_matmul(a, b);
  expected.add_inplace(Matrix::ones(6, 5));
  EXPECT_TRUE(c.approx_equal(expected, 1e-3f));
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
  // Integer accumulation is exact, so naive / blocked / threaded must be
  // identical — no float-tolerance escape hatch.
  const auto [m, k, n] = GetParam();
  Rng rng(shape_seed(GetParam()) ^ 0x1111);
  const auto a = random_int8(m * k, rng);
  const auto b = random_int8(k * n, rng);
  std::vector<std::int32_t> c_naive(m * n, 0), c_blocked(m * n, 0),
      c_threaded(m * n, 0);
  qgemm_nn_i32_naive(a.data(), b.data(), c_naive.data(), m, k, n);
  {
    GemmConfigScope scope(GemmKernel::kBlocked, 1);
    qgemm_nn_i32_blocked(a.data(), b.data(), c_blocked.data(), m, k, n);
  }
  {
    GemmConfigScope scope(GemmKernel::kBlocked, 4, 0);  // force fan-out
    qgemm_nn_i32_blocked(a.data(), b.data(), c_threaded.data(), m, k, n);
  }
  EXPECT_EQ(c_naive, c_blocked);
  EXPECT_EQ(c_naive, c_threaded);
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
  gemm_nn_simd(a, b, c_simd);  // falls back to blocked off-AVX2; same bits
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
// Every kernel x thread-count combination must produce identical bits on
// odd / remainder-heavy shapes: the micro-kernel edges (6-row f32 blocks,
// 16-column panels, 4-byte k-quads) all see partial tiles here.

struct DispatchCase {
  GemmKernel kernel;
  std::size_t threads;
  const char* tag;
};

const DispatchCase kDispatchCases[] = {
    {GemmKernel::kBlocked, 1, "blocked_seq"},
    {GemmKernel::kBlocked, 4, "blocked_t4"},
    {GemmKernel::kSimd, 1, "simd_seq"},
    {GemmKernel::kSimd, 4, "simd_t4"},
};

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
        GemmConfigScope scope(GemmKernel::kNaive, 1);
        ref_nn = a.matmul(b);
        ref_tn = at.matmul_transposed_self(b);
        ref_nt = a.matmul_transposed_other(bt);
      }
      for (const DispatchCase& dc : kDispatchCases) {
        // Threshold 0 engages the threaded path even at these sizes.
        GemmConfigScope scope(dc.kernel, dc.threads, 0);
        EXPECT_EQ(ref_nn, a.matmul(b))
            << dc.tag << " nn " << m << "x" << kOddK << "x" << n;
        EXPECT_EQ(ref_tn, at.matmul_transposed_self(b))
            << dc.tag << " tn " << m << "x" << kOddK << "x" << n;
        EXPECT_EQ(ref_nt, a.matmul_transposed_other(bt))
            << dc.tag << " nt " << m << "x" << kOddK << "x" << n;
      }
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
        for (const DispatchCase& dc : kDispatchCases) {
          GemmConfigScope scope(GemmKernel::kBlocked, dc.threads, 0);
          std::vector<std::int32_t> out(m * n, 0);
          if (dc.kernel == GemmKernel::kSimd) {
            qgemm_nn_i32_simd(a.data(), b.data(), out.data(), m, k, n);
          } else {
            qgemm_nn_i32_blocked(a.data(), b.data(), out.data(), m, k, n);
          }
          EXPECT_EQ(ref, out)
              << dc.tag << " " << m << "x" << k << "x" << n;
        }
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
      GemmConfigScope scope(GemmKernel::kSimd, 1);
      q_simd = QuantizedMatrix::quantize(m);
      qr_simd = QuantizedMatrix::quantize_rows(m);
      qa_simd = QuantizedMatrix::quantize_rows_affine(m);
    }
    GemmConfigScope scope(GemmKernel::kBlocked, 1);
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
  Matrix out_simd, out_blocked;
  {
    GemmConfigScope scope(GemmKernel::kSimd, 1);
    out_simd = qgemm(QuantizedMatrix::quantize_rows(a),
                     QuantizedMatrix::quantize(w));
  }
  {
    GemmConfigScope scope(GemmKernel::kBlocked, 1);
    out_blocked = qgemm(QuantizedMatrix::quantize_rows(a),
                        QuantizedMatrix::quantize(w));
  }
  EXPECT_EQ(out_simd, out_blocked);
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
  // The old blocked kernel skipped per 4-row GROUP, which turned a
  // skipped 0 * Inf into NaN whenever a sibling row was nonzero at the
  // same p; this is its regression test. (Raw kernel entry points: the
  // matmul dispatchers assert finite B in debug builds.)
  constexpr std::size_t m = 13, k = 9, n = 19;
  Rng rng(20260808);
  Matrix a = Matrix::randn(m, k, rng);
  // Mixed zero/nonzero scatter: every 4-row group has rows that disagree
  // about zeroness at some p, forcing the blocked kernel's mixed path.
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

  Matrix c_naive(m, n), c_blocked(m, n), c_simd(m, n);
  gemm_nn_naive(a, b, c_naive);
  gemm_nn_blocked(a, b, c_blocked);
  gemm_nn_simd(a, b, c_simd);
  EXPECT_TRUE(bits_equal(c_naive, c_blocked));
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
  Matrix t_naive(m, n), t_blocked(m, n), t_simd(m, n);
  gemm_tn_naive(at, b, t_naive);
  gemm_tn_blocked(at, b, t_blocked);
  gemm_tn_simd(at, b, t_simd);
  EXPECT_TRUE(bits_equal(t_naive, t_blocked));
  EXPECT_TRUE(bits_equal(t_naive, t_simd));
}

// ---- gemv over a nonzero list (the fused f32 head) ------------------------

TEST(GemvNz, EveryLaneMatchesTheNnProduct) {
  // The fused f32 head's primitive: a row's ascending nonzero list against
  // a [k x n] weight must give the nn product of the whole row (zero-skip,
  // +0.0f start, ascending chain) bit for bit on every kernel: naive and
  // blocked run the portable lane, simd the AVX2 one. n covers 64-column
  // passes, narrower passes and scalar column tails; the row holds +0 and
  // -0 entries, and the empty list is included.
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
             {GemmKernel::kNaive, GemmKernel::kBlocked, GemmKernel::kSimd}) {
          GemmConfigScope scope(kernel, 1);
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

// ---- pool cache ------------------------------------------------------------

TEST(Gemm, PoolCacheDoesNotThrashAcrossAlternatingWidths) {
  // Regression: acquire_pool used to rebuild the single shared pool every
  // time the configured width changed, so two call sites alternating
  // widths paid thread creation per product. The cache keys pools by
  // width: after both widths are seen once, alternating between them must
  // build nothing.
  Rng rng(4242);
  const Matrix a = Matrix::randn(16, 32, rng);
  const Matrix b = Matrix::randn(32, 8, rng);
  auto run_with_threads = [&](std::size_t threads) {
    GemmConfigScope scope(GemmKernel::kBlocked, threads, 0);
    return a.matmul(b);
  };
  run_with_threads(2);  // warm both widths' pools
  run_with_threads(3);
  const std::size_t builds_before = gemm_pool_builds();
  Matrix last;
  for (int round = 0; round < 8; ++round) {
    last = run_with_threads(2);
    last = run_with_threads(3);
  }
  EXPECT_EQ(gemm_pool_builds(), builds_before);
  EXPECT_TRUE(last.approx_equal(reference_matmul(a, b), 1e-3f));
}

// ---- dispatch resolution ---------------------------------------------------

TEST(Gemm, DispatchResolutionInvariants) {
  // kAuto is a configuration value, never a dispatch result.
  EXPECT_NE(gemm_dispatched_kernel(), GemmKernel::kAuto);
  {
    GemmConfigScope scope(GemmKernel::kNaive, 1);
    EXPECT_EQ(gemm_dispatched_kernel(), GemmKernel::kNaive);
  }
  {
    GemmConfigScope scope(GemmKernel::kBlocked, 1);
    EXPECT_EQ(gemm_dispatched_kernel(), GemmKernel::kBlocked);
  }
  {
    // kSimd degrades to kBlocked when the host or build can't run it.
    GemmConfigScope scope(GemmKernel::kSimd, 1);
    EXPECT_EQ(gemm_dispatched_kernel(), gemm_simd_available()
                                            ? GemmKernel::kSimd
                                            : GemmKernel::kBlocked);
  }
  // gemm_simd_available() implies both the runtime and compile-time legs.
  if (gemm_simd_available()) {
    EXPECT_TRUE(simd_kernels_compiled());
    EXPECT_EQ(detected_cpu_isa(), CpuIsa::kAvx2Fma);
  }
}

TEST(Gemm, ConfigScopeRestoresGlobals) {
  const GemmKernel kernel_before = gemm_kernel();
  const std::size_t threads_before = gemm_threads();
  {
    GemmConfigScope scope(GemmKernel::kNaive, 7);
    EXPECT_EQ(gemm_kernel(), GemmKernel::kNaive);
    EXPECT_EQ(gemm_threads(), 7u);
  }
  EXPECT_EQ(gemm_kernel(), kernel_before);
  EXPECT_EQ(gemm_threads(), threads_before);
}

}  // namespace
}  // namespace pp::tensor
