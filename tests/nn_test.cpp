#include <gtest/gtest.h>

#include "autograd/grad_check.hpp"
#include "autograd/ops.hpp"
#include "nn/cells.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"

namespace pp::nn {
namespace {

using autograd::backward;
using autograd::check_gradients;
using autograd::Variable;
using tensor::Matrix;

/// Two registered Linear layers: the parameter layout of a one-hidden-layer
/// network, for the Module bookkeeping tests.
class TwoLayers : public Module {
 public:
  TwoLayers(std::size_t in, std::size_t hidden, std::size_t out, Rng& rng)
      : hidden_(in, hidden, rng, "hidden0"),
        output_(hidden, out, rng, "output") {
    register_submodule("hidden0", hidden_);
    register_submodule("output", output_);
  }

 private:
  Linear hidden_;
  Linear output_;
};

TEST(Linear, ForwardShapeAndInferEquivalence) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  const Matrix x = Matrix::randn(2, 4, rng);
  Variable y = layer.forward(Variable(x));
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 3u);
  // The tape-free chain the fused serving head keeps: product, then bias.
  Matrix inferred = x.matmul(layer.weight().value());
  inferred.add_row_broadcast_inplace(layer.bias().value());
  EXPECT_TRUE(y.value().approx_equal(inferred, 1e-6f));
}

TEST(Linear, GradientCheck) {
  Rng rng(2);
  Linear layer(3, 2, rng);
  const Matrix x = Matrix::randn(2, 3, rng);
  const auto result = check_gradients(layer.parameters(), [&] {
    return autograd::mean(layer.forward(Variable(x)));
  });
  EXPECT_TRUE(result.ok) << result.detail;
}

class CellEquivalence : public ::testing::TestWithParam<CellType> {};

TEST_P(CellEquivalence, GraphAndInferPathsAgree) {
  Rng rng(3);
  const auto cell = make_cell(GetParam(), 5, 4, rng);
  CellState graph_state = cell->initial_state(1);
  auto raw_state = cell->infer_initial_state(1);
  Rng data_rng(4);
  for (int step = 0; step < 10; ++step) {
    const Matrix x = Matrix::randn(1, 5, data_rng);
    graph_state = cell->step(graph_state, Variable(x));
    cell->infer_step(raw_state, x);
    for (std::size_t part = 0; part < raw_state.size(); ++part) {
      ASSERT_TRUE(
          graph_state[part].value().approx_equal(raw_state[part], 1e-5f))
          << to_string(GetParam()) << " step " << step << " part " << part;
    }
  }
}

TEST_P(CellEquivalence, GradientThroughThreeSteps) {
  Rng rng(5);
  const auto cell = make_cell(GetParam(), 3, 3, rng);
  Rng data_rng(6);
  std::vector<Matrix> inputs;
  for (int i = 0; i < 3; ++i) inputs.push_back(Matrix::randn(1, 3, data_rng));
  const auto result = check_gradients(cell->parameters(), [&] {
    CellState state = cell->initial_state(1);
    for (const auto& x : inputs) state = cell->step(state, Variable(x));
    return autograd::mean(state.front());
  });
  EXPECT_TRUE(result.ok) << to_string(GetParam()) << ": " << result.detail;
}

TEST_P(CellEquivalence, BoundedHiddenState) {
  // tanh/GRU hidden values must stay in (-1, 1); LSTM h = o * tanh(c) too.
  Rng rng(7);
  const auto cell = make_cell(GetParam(), 4, 6, rng);
  auto state = cell->infer_initial_state(1);
  Rng data_rng(8);
  for (int step = 0; step < 50; ++step) {
    cell->infer_step(state, Matrix::randn(1, 4, data_rng, 0.0f, 3.0f));
  }
  EXPECT_LE(state.front().max_abs(), 1.0f);
}

INSTANTIATE_TEST_SUITE_P(Cells, CellEquivalence,
                         ::testing::Values(CellType::kTanh, CellType::kGru,
                                           CellType::kLstm),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(Cells, OrthogonalInitProducesOrthonormalColumns) {
  Rng rng(9);
  const Matrix q = orthogonal_init(8, 8, rng);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double dot = 0;
      for (std::size_t r = 0; r < 8; ++r) dot += q.at(r, i) * q.at(r, j);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-4) << i << "," << j;
    }
  }
}

TEST(Cells, StateParts) {
  Rng rng(10);
  EXPECT_EQ(make_cell(CellType::kGru, 2, 2, rng)->state_parts(), 1u);
  EXPECT_EQ(make_cell(CellType::kLstm, 2, 2, rng)->state_parts(), 2u);
}

TEST(Module, CopyAndAccumulateAcrossReplicas) {
  Rng rng(11);
  Linear master(3, 2, rng);
  Linear replica(3, 2, rng);
  EXPECT_FALSE(
      master.parameters()[0].value().approx_equal(
          replica.parameters()[0].value(), 1e-9f));
  replica.copy_parameters_from(master);
  EXPECT_TRUE(master.parameters()[0].value().approx_equal(
      replica.parameters()[0].value(), 0.0f));

  // Gradients accumulate from replica into master.
  const Matrix x = Matrix::randn(1, 3, rng);
  backward(autograd::mean(replica.forward(Variable(x))));
  master.zero_grad();
  for (auto& p : master.parameters()) {
    const_cast<Variable&>(p).mutable_grad();  // materialize zero grads
  }
  replica.accumulate_grads_into(master);
  EXPECT_TRUE(master.parameters()[0].grad().approx_equal(
      replica.parameters()[0].grad(), 0.0f));
}

TEST(Module, SerializeRoundTripPreservesParameters) {
  Rng rng(12);
  TwoLayers a(4, 5, 1, rng);
  TwoLayers b(4, 5, 1, rng);
  BinaryWriter writer;
  a.serialize(writer);
  BinaryReader reader(writer.take());
  b.deserialize(reader);
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i].value().approx_equal(pb[i].value(), 0.0f));
  }
}

TEST(Module, ParameterNamesAreQualified) {
  Rng rng(13);
  TwoLayers net(2, 3, 1, rng);
  const auto names = net.parameter_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "hidden0.hidden0.weight");
  EXPECT_EQ(names[3], "output.output.bias");
}

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  Variable p(Matrix(1, 4, 0.0f), true);
  p.mutable_grad() = Matrix(1, 4, 3.0f);  // norm = 6
  const double before = clip_grad_norm({p}, 1.5);
  EXPECT_NEAR(before, 6.0, 1e-6);
  EXPECT_NEAR(p.grad().norm(), 1.5, 1e-5);
  // Under the limit: untouched.
  const double second = clip_grad_norm({p}, 10.0);
  EXPECT_NEAR(second, 1.5, 1e-5);
  EXPECT_NEAR(p.grad().norm(), 1.5, 1e-5);
}

TEST(Adam, MinimizesQuadratic) {
  // f(w) = ||w - target||^2.
  Variable w(Matrix(1, 3, 0.0f), true);
  const Matrix target(1, 3, std::vector<float>{1.0f, -2.0f, 0.5f});
  Adam opt({w}, {.learning_rate = 0.05});
  for (int i = 0; i < 500; ++i) {
    opt.zero_grad();
    Variable diff = autograd::sub(Variable(w.node()), Variable(target));
    backward(autograd::sum(autograd::mul(diff, diff)));
    opt.step();
  }
  EXPECT_TRUE(w.value().approx_equal(target, 1e-2f));
}

TEST(Sgd, MomentumConvergesOnQuadratic) {
  Variable w(Matrix(1, 2, 5.0f), true);
  const Matrix target(1, 2, std::vector<float>{-1.0f, 2.0f});
  Sgd opt({w}, {.learning_rate = 0.02, .momentum = 0.9});
  for (int i = 0; i < 400; ++i) {
    opt.zero_grad();
    Variable diff = autograd::sub(Variable(w.node()), Variable(target));
    backward(autograd::sum(autograd::mul(diff, diff)));
    opt.step();
  }
  EXPECT_TRUE(w.value().approx_equal(target, 5e-2f));
}

}  // namespace
}  // namespace pp::nn
