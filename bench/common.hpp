// Shared harness utilities for the experiment benches. Every bench prints
// the paper's reference numbers next to the measured ones so the *shape*
// comparison (ordering, rough factors) is visible at a glance.
//
// Scale control: set PP_BENCH_SCALE (default 1.0) to multiply the user
// counts; PP_BENCH_FULL=1 switches to the heavier "paper-faithful"
// configuration documented in EXPERIMENTS.md.
#pragma once

#include <cstdlib>
#include <string>

#include "data/generators.hpp"
#include "eval/metrics.hpp"
#include "features/examples.hpp"
#include "models/gbdt_model.hpp"
#include "models/logistic_regression.hpp"
#include "models/percentage.hpp"
#include "models/rnn_model.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace pp::bench {

inline double bench_scale() {
  if (const char* s = std::getenv("PP_BENCH_SCALE")) {
    return std::max(0.05, std::atof(s));
  }
  return 1.0;
}

inline bool bench_full() {
  const char* s = std::getenv("PP_BENCH_FULL");
  return s != nullptr && s[0] == '1';
}

inline std::size_t scaled(std::size_t base) {
  return static_cast<std::size_t>(static_cast<double>(base) * bench_scale());
}

/// Default bench-sized dataset configs (documented in EXPERIMENTS.md).
inline data::MobileTabConfig mobile_tab_config() {
  data::MobileTabConfig config;
  config.num_users = scaled(bench_full() ? 12000 : 4000);
  return config;
}

inline data::TimeshiftConfig timeshift_config() {
  data::TimeshiftConfig config;
  config.num_users = scaled(bench_full() ? 12000 : 4000);
  return config;
}

inline data::MpuConfig mpu_config() {
  data::MpuConfig config;
  config.num_users = 279;
  config.mean_events_per_day = bench_full() ? 80.0 : 24.0;
  return config;
}

/// Bench-sized model configurations.
inline models::RnnModelConfig rnn_config_for(const data::Dataset& dataset) {
  models::RnnModelConfig config;
  config.hidden_size = bench_full() ? 128 : 64;
  config.mlp_hidden = bench_full() ? 128 : 64;
  config.num_threads = 0;  // hardware
  config.truncate_history = bench_full() ? 10000 : 600;
  if (dataset.name == "MPU") {
    config.epochs = bench_full() ? 8 : 4;
    config.truncate_history = bench_full() ? 10000 : 800;
    // §7.1: minibatching is ineffective for MPU (few users, long
    // histories); users are processed individually.
    config.minibatch_users = 2;
  } else {
    config.epochs = bench_full() ? 4 : 3;
  }
  return config;
}

inline models::GbdtModelConfig gbdt_config() {
  models::GbdtModelConfig config;
  config.booster.num_rounds = 150;
  config.booster.learning_rate = 0.1;
  config.booster.early_stopping_rounds = 15;
  config.min_depth = 2;
  config.max_depth = bench_full() ? 8 : 6;
  return config;
}

/// Standard splits: 90/10 train/test by user (§5.3) plus a 10% validation
/// carve-out of train for GBDT depth search.
struct BenchSplit {
  std::vector<std::size_t> train;       // for LR/RNN/percentage
  std::vector<std::size_t> gbdt_train;  // train minus validation
  std::vector<std::size_t> gbdt_valid;
  std::vector<std::size_t> test;
};

inline BenchSplit make_split(std::size_t num_users, std::uint64_t seed = 99) {
  const auto outer = features::split_users(num_users, 0.1, seed);
  BenchSplit split;
  split.train = outer.train;
  split.test = outer.test;
  const auto inner =
      features::split_users(outer.train.size(), 0.1, seed ^ 0x1234);
  for (const auto i : inner.train) {
    split.gbdt_train.push_back(outer.train[i]);
  }
  for (const auto i : inner.test) {
    split.gbdt_valid.push_back(outer.train[i]);
  }
  return split;
}

/// Scores for all four models on one dataset's held-out users, evaluated
/// on the last 7 days (§8), and the labels they share: every model scores
/// the same (user, timestamp) rows in the same order. Shared by the
/// Table 3 / Table 4 / Figure 6 benches.
struct ModelScores {
  std::vector<double> percentage, lr, gbdt, rnn;
  std::vector<float> labels;
};

/// Runs the full four-model comparison on a session dataset (MobileTab,
/// MPU) or a timeshifted one. Prints progress to stderr. Throws
/// std::logic_error when the models' label series differ.
ModelScores run_model_comparison(const data::Dataset& dataset,
                                 const BenchSplit& split,
                                 bool is_timeshift);

}  // namespace pp::bench
