// Tables 3 & 4 and Figure 6 — the paper's headline offline comparison.
// All three artifacts come from the same trained models, so this harness
// prints them together:
//   Table 3: PR-AUC for {%Based, LR, GBDT, RNN} x {MobileTab, Timeshift,
//            MPU}, with the RNN improvement relative to GBDT.
//   Table 4: recall at 50% precision, same grid.
//   Figure 6: the MobileTab precision-recall curves.
// Paper reference (Table 3): MobileTab .470/.546/.578/.596 (+3.11%),
// Timeshift .260/.290/.311/.335 (+7.72%), MPU .591/.683/.686/.767 (+11.8%).
//
// MPU uses user-based k-fold cross-validation (§7); the paper uses k=4,
// the bench default is k=2 for runtime (PP_BENCH_FULL=1 restores 4).
#include "bench/common.hpp"

using namespace pp;
using namespace pp::bench;

namespace {

struct DatasetResult {
  std::string name;
  double pr_auc[4];     // %based, lr, gbdt, rnn
  double recall50[4];
};

DatasetResult evaluate(const data::Dataset& dataset, bool timeshift) {
  const BenchSplit split = make_split(dataset.users.size());
  const ModelScores s = run_model_comparison(dataset, split, timeshift);
  DatasetResult result;
  result.name = dataset.name;
  const std::vector<double>* scores[4] = {&s.percentage, &s.lr, &s.gbdt,
                                          &s.rnn};
  for (int m = 0; m < 4; ++m) {
    result.pr_auc[m] = eval::pr_auc(*scores[m], s.labels);
    result.recall50[m] = eval::recall_at_precision(*scores[m], s.labels, 0.5);
  }
  return result;
}

/// MPU cross-validation: metrics over the combined held-out predictions of
/// all folds (§7).
DatasetResult evaluate_mpu_cv(const data::Dataset& dataset, std::size_t k) {
  const auto folds = features::kfold_users(dataset.users.size(), k, 99);
  ModelScores combined;
  for (std::size_t f = 0; f < k; ++f) {
    BenchSplit split;
    split.test = folds[f];
    for (std::size_t g = 0; g < k; ++g) {
      if (g == f) continue;
      split.train.insert(split.train.end(), folds[g].begin(), folds[g].end());
    }
    const auto inner =
        features::split_users(split.train.size(), 0.1, 7 * (f + 1));
    for (const auto i : inner.train) {
      split.gbdt_train.push_back(split.train[i]);
    }
    for (const auto i : inner.test) {
      split.gbdt_valid.push_back(split.train[i]);
    }
    std::fprintf(stderr, "[bench] MPU fold %zu/%zu\n", f + 1, k);
    const ModelScores s = run_model_comparison(dataset, split, false);
    auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    auto append_l = [](std::vector<float>& a, const std::vector<float>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(combined.percentage, s.percentage);
    append(combined.lr, s.lr);
    append(combined.gbdt, s.gbdt);
    append(combined.rnn, s.rnn);
    append_l(combined.labels, s.labels);
  }
  DatasetResult result;
  result.name = dataset.name;
  const std::vector<double>* scores[4] = {&combined.percentage, &combined.lr,
                                          &combined.gbdt, &combined.rnn};
  for (int m = 0; m < 4; ++m) {
    result.pr_auc[m] = eval::pr_auc(*scores[m], combined.labels);
    result.recall50[m] =
        eval::recall_at_precision(*scores[m], combined.labels, 0.5);
  }
  return result;
}

}  // namespace

int main() {
  std::vector<DatasetResult> results;
  ModelScores mobile_scores;  // kept for Figure 6

  {
    const data::Dataset d = data::generate_mobile_tab(mobile_tab_config());
    const BenchSplit split = make_split(d.users.size());
    mobile_scores = run_model_comparison(d, split, false);
    DatasetResult r;
    r.name = d.name;
    const std::vector<double>* scores[4] = {
        &mobile_scores.percentage, &mobile_scores.lr, &mobile_scores.gbdt,
        &mobile_scores.rnn};
    for (int m = 0; m < 4; ++m) {
      r.pr_auc[m] = eval::pr_auc(*scores[m], mobile_scores.labels);
      r.recall50[m] =
          eval::recall_at_precision(*scores[m], mobile_scores.labels, 0.5);
    }
    results.push_back(r);
  }
  {
    const data::Dataset d = data::generate_timeshift(timeshift_config());
    results.push_back(evaluate(d, true));
  }
  {
    const data::Dataset d = data::generate_mpu(mpu_config());
    results.push_back(evaluate_mpu_cv(d, bench_full() ? 4 : 2));
  }

  const char* model_names[4] = {"PercentageBased", "LR", "GBDT", "RNN"};
  Table t3({"model", "MobileTab", "Timeshift", "MPU"});
  for (int m = 0; m < 4; ++m) {
    auto& row = t3.row().cell(model_names[m]);
    for (const auto& r : results) row.cell(r.pr_auc[m], 3);
  }
  auto& improvement = t3.row().cell("RNN vs GBDT");
  for (const auto& r : results) {
    improvement.cell_percent(r.pr_auc[3] / r.pr_auc[2] - 1.0);
  }
  t3.print(
      "Table 3: PR-AUC (paper: MobileTab .470/.546/.578/.596 +3.11%, "
      "Timeshift .260/.290/.311/.335 +7.72%, MPU .591/.683/.686/.767 "
      "+11.8%)");

  Table t4({"model", "MobileTab", "Timeshift", "MPU"});
  for (int m = 0; m < 4; ++m) {
    auto& row = t4.row().cell(model_names[m]);
    for (const auto& r : results) row.cell(r.recall50[m], 3);
  }
  auto& imp4 = t4.row().cell("RNN vs GBDT");
  for (const auto& r : results) {
    imp4.cell_percent(r.recall50[3] / std::max(r.recall50[2], 1e-9) - 1.0);
  }
  t4.print(
      "Table 4: recall @ 50% precision (paper: MobileTab "
      ".413/.596/.616/.642, Timeshift .124/.153/.176/.209, MPU "
      ".811/.906/.917/.977)");

  // Figure 6: MobileTab PR curves, sampled at fixed recall grid points.
  Table f6({"recall", "%Based", "LR", "GBDT", "RNN"});
  const std::vector<double>* scores[4] = {
      &mobile_scores.percentage, &mobile_scores.lr, &mobile_scores.gbdt,
      &mobile_scores.rnn};
  std::vector<std::vector<eval::PrPoint>> curves;
  for (int m = 0; m < 4; ++m) {
    curves.push_back(
        eval::precision_recall_curve(*scores[m], mobile_scores.labels));
  }
  for (double recall = 0.1; recall <= 0.9001; recall += 0.1) {
    auto& row = f6.row().cell(recall, 1);
    for (int m = 0; m < 4; ++m) {
      // Highest precision among points with recall >= target.
      double best = 0;
      for (const auto& p : curves[static_cast<std::size_t>(m)]) {
        if (p.recall >= recall) best = std::max(best, p.precision);
      }
      row.cell(best, 3);
    }
  }
  f6.print("Figure 6: MobileTab precision at recall grid (PR curves)");
  return 0;
}
