#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "data/generators.hpp"
#include "eval/metrics.hpp"
#include "features/examples.hpp"
#include "models/gbdt_model.hpp"
#include "models/logistic_regression.hpp"
#include "models/mlp_model.hpp"
#include "models/percentage.hpp"
#include "models/rnn_model.hpp"
#include "util/math.hpp"

namespace pp::models {
namespace {

std::vector<std::size_t> range(std::size_t n) {
  std::vector<std::size_t> out(n);
  std::iota(out.begin(), out.end(), 0);
  return out;
}

TEST(PercentageModel, ExactRunningEstimate) {
  data::Dataset dataset;
  dataset.schema.fields = {{"x", 2, false, false}};
  dataset.start_time = 0;
  dataset.end_time = 10 * 86400;
  data::UserLog user;
  user.user_id = 0;
  for (int i = 0; i < 4; ++i) {
    data::Session s;
    s.timestamp = 1000 + i * 1000;
    s.access = (i == 1 || i == 2) ? 1 : 0;
    user.sessions.push_back(s);
  }
  dataset.users.push_back(user);

  PercentageModel model;
  model.fit(dataset, range(1));
  EXPECT_NEAR(model.alpha(), 0.5, 1e-12);
  const auto series = model.score(dataset, range(1));
  ASSERT_EQ(series.scores.size(), 4u);
  // P(A_n) = (alpha + sum_{i<n} A_i) / n.
  EXPECT_NEAR(series.scores[0], 0.5 / 1.0, 1e-12);
  EXPECT_NEAR(series.scores[1], 0.5 / 2.0, 1e-12);
  EXPECT_NEAR(series.scores[2], 1.5 / 3.0, 1e-12);
  EXPECT_NEAR(series.scores[3], 2.5 / 4.0, 1e-12);
}

TEST(PercentageModel, TimeshiftUsesPerDayPeakLabels) {
  data::TimeshiftConfig config;
  config.num_users = 60;
  config.days = 10;
  const data::Dataset dataset = data::generate_timeshift(config);
  PercentageModel model;
  model.fit(dataset, range(40));
  EXPECT_GT(model.alpha(), 0.0);
  EXPECT_LT(model.alpha(), 0.5);
  const auto series = model.score(dataset, range(40));
  EXPECT_EQ(series.scores.size(), 40u * 10u);
}

TEST(LogisticRegression, RecoversLinearSignal) {
  // y ~ Bernoulli(sigmoid(2*x0 - 2*x1)); one-hot features 0/1.
  Rng rng(3);
  features::ExampleBatch batch;
  batch.dimension = 3;
  for (int i = 0; i < 6000; ++i) {
    const bool a = rng.bernoulli(0.5), b = rng.bernoulli(0.5);
    features::SparseRow row;
    if (a) row.emplace_back(0, 1.0f);
    if (b) row.emplace_back(1, 1.0f);
    row.emplace_back(2, 1.0f);  // bias-like always-on feature
    const double z = 2.0 * a - 2.0 * b;
    batch.add_row(row, rng.bernoulli(sigmoid(z)) ? 1.0f : 0.0f, i, 0);
  }
  LogisticRegressionModel model;
  const auto losses = model.fit(batch, {.epochs = 6});
  EXPECT_LT(losses.back(), losses.front());
  EXPECT_GT(model.weights()[0], 1.0f);
  EXPECT_LT(model.weights()[1], -1.0f);
  // Well-calibrated on the margin.
  const auto scores = model.predict(batch);
  EXPECT_NEAR(eval::roc_auc(scores, batch.labels), 0.75, 0.05);
}

TEST(LogisticRegression, SerializeRoundTrip) {
  Rng rng(4);
  features::ExampleBatch batch;
  batch.dimension = 2;
  for (int i = 0; i < 200; ++i) {
    const bool a = rng.bernoulli(0.5);
    features::SparseRow row;
    if (a) row.emplace_back(0, 1.0f);
    batch.add_row(row, a ? 1.0f : 0.0f, i, 0);
  }
  LogisticRegressionModel model;
  model.fit(batch);
  BinaryWriter writer;
  model.serialize(writer);
  BinaryReader reader(writer.take());
  const auto copy = LogisticRegressionModel::deserialize(reader);
  EXPECT_EQ(copy.weights(), model.weights());
  EXPECT_EQ(copy.bias(), model.bias());
}

TEST(MlpModel, BeatsChanceOnInteraction) {
  // XOR-like signal that LR cannot express.
  Rng rng(5);
  features::ExampleBatch train;
  train.dimension = 2;
  for (int i = 0; i < 4000; ++i) {
    const bool a = rng.bernoulli(0.5), b = rng.bernoulli(0.5);
    features::SparseRow row;
    if (a) row.emplace_back(0, 1.0f);
    if (b) row.emplace_back(1, 1.0f);
    const bool y = (a != b) ? rng.bernoulli(0.9) : rng.bernoulli(0.1);
    train.add_row(row, y ? 1.0f : 0.0f, i, 0);
  }
  MlpModel model;
  MlpModelConfig config;
  config.epochs = 12;
  config.learning_rate = 5e-3;
  config.hidden_sizes = {16};
  config.dropout = 0.0f;
  model.fit(train, config);
  const auto scores = model.predict(train);
  EXPECT_GT(eval::roc_auc(scores, train.labels), 0.85);
}

TEST(GbdtModel, DepthSearchAndPredictions) {
  data::MobileTabConfig config;
  config.num_users = 200;
  config.days = 12;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  features::FeaturePipeline pipeline(dataset.schema, {},
                                     features::gbdt_encoding());
  std::vector<std::size_t> train_users = range(150);
  std::vector<std::size_t> valid_users;
  for (std::size_t u = 150; u < 180; ++u) valid_users.push_back(u);
  std::vector<std::size_t> test_users;
  for (std::size_t u = 180; u < 200; ++u) test_users.push_back(u);

  const auto train =
      features::build_session_examples(dataset, train_users, pipeline, 0, 0, 2);
  const auto valid =
      features::build_session_examples(dataset, valid_users, pipeline, 0, 0, 2);
  const auto test =
      features::build_session_examples(dataset, test_users, pipeline, 0, 0, 2);

  GbdtModel model;
  GbdtModelConfig model_config;
  model_config.min_depth = 2;
  model_config.max_depth = 4;
  model_config.booster.num_rounds = 30;
  const auto summary = model.fit(train, valid, model_config);
  EXPECT_GE(summary.chosen_depth, 2);
  EXPECT_LE(summary.chosen_depth, 4);
  EXPECT_EQ(summary.depth_losses.size(), 3u);

  const auto scores = model.predict(test);
  // Must clearly beat chance on held-out users.
  EXPECT_GT(eval::roc_auc(scores, test.labels), 0.70);
}

TEST(RnnModel, LearnsAndBeatsPercentageBaseline) {
  data::MobileTabConfig config;
  config.num_users = 400;
  config.days = 14;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  const auto train_users = range(320);
  std::vector<std::size_t> test_users;
  for (std::size_t u = 320; u < 400; ++u) test_users.push_back(u);
  const std::int64_t eval_from = dataset.end_time - 5 * 86400;

  RnnModelConfig rnn_config;
  rnn_config.hidden_size = 16;
  rnn_config.mlp_hidden = 16;
  rnn_config.epochs = 6;
  rnn_config.num_threads = 2;
  rnn_config.truncate_history = 150;
  rnn_config.loss_window_days = 10;
  RnnModel rnn(dataset, rnn_config);
  const auto curve = rnn.fit(dataset, train_users);
  EXPECT_GT(curve.minibatch_loss.size(), 0u);

  const auto rnn_series = rnn.score(dataset, test_users, eval_from, 0, 2);
  PercentageModel pct;
  pct.fit(dataset, train_users);
  const auto pct_series = pct.score(dataset, test_users, eval_from);
  ASSERT_EQ(rnn_series.scores.size(), pct_series.scores.size());
  EXPECT_GT(eval::pr_auc(rnn_series.scores, rnn_series.labels),
            eval::pr_auc(pct_series.scores, pct_series.labels));
}

TEST(RnnModel, SaveLoadPreservesScores) {
  data::MobileTabConfig config;
  config.num_users = 20;
  config.days = 6;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  RnnModelConfig rnn_config;
  rnn_config.hidden_size = 8;
  rnn_config.mlp_hidden = 8;
  RnnModel a(dataset, rnn_config);
  const std::string path = ::testing::TempDir() + "/rnn_model.bin";
  a.save(path);
  RnnModel b(dataset, rnn_config);
  b.load(path);
  const auto users = range(5);
  const auto sa = a.score(dataset, users);
  const auto sb = b.score(dataset, users);
  ASSERT_EQ(sa.scores.size(), sb.scores.size());
  for (std::size_t i = 0; i < sa.scores.size(); ++i) {
    EXPECT_NEAR(sa.scores[i], sb.scores[i], 1e-7);
  }
  std::remove(path.c_str());
}

TEST(RnnModel, ReusableTimestampOnlyModeRuns) {
  // §10.1: a model fed only timestamps and labels.
  data::MobileTabConfig config;
  config.num_users = 40;
  config.days = 8;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  RnnModelConfig rnn_config;
  rnn_config.hidden_size = 8;
  rnn_config.mlp_hidden = 8;
  rnn_config.feature_mode = train::FeatureMode::kNone;
  rnn_config.epochs = 2;
  rnn_config.num_threads = 2;
  RnnModel rnn(dataset, rnn_config);
  rnn.fit(dataset, range(30));
  const auto series = rnn.score(dataset, range(30));
  EXPECT_GT(series.scores.size(), 0u);
}

/// One evaluated prediction: what a Table 3 column is scored on.
struct EvalRow {
  std::size_t user;
  std::int64_t t;
  float label;
  bool operator==(const EvalRow&) const = default;
};

/// The rows of a model's series over `users`, scored one user at a time so
/// each row carries its user. The same rows, in the same order, must come
/// back when all users are scored in one call, as the comparison does.
template <typename Score>
std::vector<EvalRow> series_rows(std::span<const std::size_t> users,
                                 const Score& score) {
  std::vector<EvalRow> rows;
  for (const std::size_t u : users) {
    const train::ScoredSeries s = score(std::span<const std::size_t>(&u, 1));
    for (std::size_t i = 0; i < s.labels.size(); ++i) {
      rows.push_back({u, s.timestamps[i], s.labels[i]});
    }
  }
  const train::ScoredSeries whole = score(users);
  EXPECT_EQ(whole.labels.size(), rows.size());
  for (std::size_t i = 0; i < rows.size() && i < whole.labels.size(); ++i) {
    EXPECT_EQ(whole.timestamps[i], rows[i].t) << "row " << i;
    EXPECT_EQ(whole.labels[i], rows[i].label) << "row " << i;
  }
  return rows;
}

std::vector<EvalRow> batch_rows(const features::ExampleBatch& batch,
                                std::span<const std::size_t> users) {
  std::vector<EvalRow> rows;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    rows.push_back({users[batch.user_row[i]], batch.timestamps[i],
                    batch.labels[i]});
  }
  return rows;
}

void expect_same_rows(const std::vector<EvalRow>& want,
                      const std::vector<EvalRow>& got,
                      const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i])
        << what << " row " << i << ": user " << want[i].user << " vs "
        << got[i].user << ", t " << want[i].t << " vs " << got[i].t;
  }
}

TEST(ModelComparison, EveryModelScoresTheSameRows) {
  // Table 3 compares PR-AUCs, so all four models must be scored on the
  // same (user, timestamp, label) rows: the percentage model's replay, the
  // LR and GBDT example batches and the RNN's replay, with the split and
  // evaluation window run_model_comparison uses. MPU's RNN caps training
  // histories at 800 sessions; scoring must not inherit the cap.
  data::MobileTabConfig mobile;
  mobile.num_users = 600;
  data::TimeshiftConfig timeshift;
  timeshift.num_users = 600;
  data::MpuConfig mpu;
  mpu.mean_events_per_day = 24.0;
  const data::Dataset datasets[] = {data::generate_mobile_tab(mobile),
                                    data::generate_timeshift(timeshift),
                                    data::generate_mpu(mpu)};
  for (const data::Dataset& dataset : datasets) {
    const auto split = features::split_users(dataset.users.size(), 0.1, 99);
    const std::int64_t eval_from = dataset.end_time - 7 * 86400;

    PercentageModel percentage;
    percentage.fit(dataset, split.train);
    const std::vector<EvalRow> want =
        series_rows(split.test, [&](std::span<const std::size_t> users) {
          return percentage.score(dataset, users, eval_from);
        });
    ASSERT_GT(want.size(), 100u) << dataset.name;

    for (const features::FeatureEncoding encoding :
         {features::lr_encoding(), features::gbdt_encoding()}) {
      const features::FeaturePipeline pipeline(dataset.schema, {}, encoding);
      const features::ExampleBatch batch =
          dataset.timeshifted
              ? features::build_timeshift_examples(dataset, split.test,
                                                   pipeline, eval_from, 0, 2)
              : features::build_session_examples(dataset, split.test,
                                                 pipeline, eval_from, 0, 2);
      expect_same_rows(want, batch_rows(batch, split.test),
                       dataset.name + " example batch");
    }

    RnnModelConfig rnn_config;
    rnn_config.hidden_size = 8;
    rnn_config.mlp_hidden = 8;
    rnn_config.truncate_history = dataset.name == "MPU" ? 800 : 600;
    const RnnModel rnn(dataset, rnn_config);
    expect_same_rows(
        want,
        series_rows(split.test,
                    [&](std::span<const std::size_t> users) {
                      return rnn.score(dataset, users, eval_from, 0, 2);
                    }),
        dataset.name + " RNN");
  }
}

}  // namespace
}  // namespace pp::models
