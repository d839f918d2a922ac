#include "bench/common.hpp"

#include <cstdio>
#include <stdexcept>

namespace pp::bench {

namespace {

void log_phase(const std::string& message) {
  std::fprintf(stderr, "[bench] %s\n", message.c_str());
}

features::ExampleBatch build_batch(const data::Dataset& dataset,
                                   std::span<const std::size_t> users,
                                   const features::FeaturePipeline& pipeline,
                                   std::int64_t emit_from, bool timeshift) {
  return timeshift ? features::build_timeshift_examples(
                         dataset, users, pipeline, emit_from, 0, 2)
                   : features::build_session_examples(dataset, users,
                                                      pipeline, emit_from, 0,
                                                      2);
}

}  // namespace

ModelScores run_model_comparison(const data::Dataset& dataset,
                                 const BenchSplit& split, bool is_timeshift) {
  ModelScores scores;
  std::vector<float> lr_labels, gbdt_labels, rnn_labels;
  const std::int64_t eval_from = dataset.end_time - 7 * 86400;
  // Baselines train on the last 7 days (§5.3), giving aggregation features
  // a 23-day warm-up.
  const std::int64_t train_from = dataset.end_time - 7 * 86400;

  // ---- percentage baseline ----
  log_phase(dataset.name + ": percentage model");
  models::PercentageModel percentage;
  percentage.fit(dataset, split.train);
  {
    const auto series = percentage.score(dataset, split.test, eval_from);
    scores.percentage = series.scores;
    scores.labels = series.labels;
  }

  // ---- logistic regression ----
  log_phase(dataset.name + ": logistic regression");
  {
    features::FeaturePipeline pipeline(dataset.schema, {},
                                       features::lr_encoding());
    const auto train =
        build_batch(dataset, split.train, pipeline, train_from, is_timeshift);
    const auto test =
        build_batch(dataset, split.test, pipeline, eval_from, is_timeshift);
    models::LogisticRegressionModel lr;
    lr.fit(train);
    scores.lr = lr.predict(test);
    lr_labels = test.labels;
  }

  // ---- GBDT with depth search ----
  log_phase(dataset.name + ": GBDT (depth search)");
  {
    features::FeaturePipeline pipeline(dataset.schema, {},
                                       features::gbdt_encoding());
    const auto train = build_batch(dataset, split.gbdt_train, pipeline,
                                   train_from, is_timeshift);
    const auto valid = build_batch(dataset, split.gbdt_valid, pipeline,
                                   train_from, is_timeshift);
    const auto test =
        build_batch(dataset, split.test, pipeline, eval_from, is_timeshift);
    models::GbdtModel gbdt;
    const auto summary = gbdt.fit(train, valid, gbdt_config());
    log_phase(dataset.name + ": GBDT depth=" +
              std::to_string(summary.chosen_depth) + " trees=" +
              std::to_string(summary.trees));
    scores.gbdt = gbdt.predict(test);
    gbdt_labels = test.labels;
  }

  // ---- RNN ----
  log_phase(dataset.name + ": RNN (GRU + latent cross)");
  {
    auto config = rnn_config_for(dataset);
    models::RnnModel rnn(dataset, config);
    Stopwatch sw;
    rnn.fit(dataset, split.train);
    log_phase(dataset.name + ": RNN trained in " +
              format_double(sw.elapsed_seconds(), 1) + "s");
    const auto series = rnn.score(dataset, split.test, eval_from, 0, 2);
    scores.rnn = series.scores;
    rnn_labels = series.labels;
  }
  // Table 3 is like for like only if every model scores the same rows.
  // ModelComparison.EveryModelScoresTheSameRows (tests/models_test.cpp)
  // pins them on small cohorts; this holds it on every bench run.
  if (lr_labels != scores.labels || gbdt_labels != scores.labels ||
      rnn_labels != scores.labels) {
    throw std::logic_error(dataset.name +
                           ": the four models scored different label series");
  }
  return scores;
}

}  // namespace pp::bench
