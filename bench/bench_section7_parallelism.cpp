// §7.1: minibatch execution strategies. The paper reports that evaluating
// each user on its own thread and accumulating gradients ("custom
// parallelism") trains about 2x faster than padding user histories to a
// uniform length, because the history-length distribution is long-tailed
// (Figure 5) and padded steps are wasted work.
//
// This bench times one epoch of identical training work under all three
// strategies on an MPU-like workload with heavy-tailed history lengths,
// five interleaved rounds each, and reads the ratios off the medians.
#include <algorithm>
#include <iterator>
#include <numeric>
#include <thread>

#include "bench/common.hpp"
#include "tensor/gemm.hpp"

using namespace pp;
using namespace pp::bench;

namespace {

/// The q-quantile of `values`, linearly interpolated between order
/// statistics (the median of 5 is the 3rd, its quartiles the 2nd and 4th).
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace

int main() {
  data::MpuConfig config;
  config.num_users = 48;
  config.days = 14;
  config.mean_events_per_day = 25;
  config.activity_sigma = 1.2;  // pronounced long tail: padding hurts
  const data::Dataset dataset = data::generate_mpu(config);

  std::size_t max_len = 0, total = 0;
  for (const auto& u : dataset.users) {
    max_len = std::max(max_len, u.sessions.size());
    total += u.sessions.size();
  }
  const double padding_factor =
      static_cast<double>(max_len) * dataset.users.size() / total;
  std::printf("history lengths: mean %.0f, max %zu (padding factor %.2fx)\n",
              static_cast<double>(total) / dataset.users.size(), max_len,
              padding_factor);

  std::vector<std::size_t> users(dataset.users.size());
  std::iota(users.begin(), users.end(), 0);

  struct Strategy {
    const char* name;
    train::BatchStrategy strategy;
  };
  const Strategy strategies[] = {
      {"per-user threads (paper)", train::BatchStrategy::kPerUserThreads},
      {"padded batch", train::BatchStrategy::kPaddedBatch},
      {"sequential", train::BatchStrategy::kSequential},
  };

  constexpr std::size_t kTrainerThreads = 2;
  // One epoch of the same training work, from the same initial weights.
  const auto time_epoch = [&](train::BatchStrategy strategy) {
    train::RnnNetworkConfig net_config;
    net_config.feature_size =
        train::feature_width(dataset.schema, train::FeatureMode::kFull);
    net_config.hidden_size = 32;
    net_config.mlp_hidden = 32;
    net_config.dropout = 0.0f;
    Rng rng(11);
    train::RnnNetwork network(net_config, rng);
    train::RnnTrainerConfig trainer_config;
    trainer_config.epochs = 1;
    trainer_config.minibatch_users = 8;
    trainer_config.strategy = strategy;
    trainer_config.num_threads = kTrainerThreads;
    trainer_config.sequence.truncate_history = 2000;
    train::RnnTrainer trainer(network, trainer_config);
    Stopwatch sw;
    trainer.fit(dataset, users);
    return sw.elapsed_seconds();
  };
  // A single epoch per strategy reads host noise as often as the
  // strategies' gap, so each runs kRounds times, interleaved, each round
  // starting one strategy later than the last: drift on a shared host and
  // first-run effects land on every strategy alike.
  constexpr std::size_t kStrategies = std::size(strategies);
  constexpr std::size_t kRounds = 5;
  std::vector<double> times[kStrategies];
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < kStrategies; ++k) {
      const std::size_t i = (round + k) % kStrategies;
      times[i].push_back(time_epoch(strategies[i].strategy));
    }
  }
  double median[kStrategies];
  for (std::size_t i = 0; i < kStrategies; ++i) {
    median[i] = quantile(times[i], 0.5);
  }
  const double padded = median[1];  // strategies[1] is the padded batch
  Table table({"strategy", "median_s", "q1_s", "q3_s", "speedup_vs_padded"});
  for (std::size_t i = 0; i < kStrategies; ++i) {
    table.row()
        .cell(strategies[i].name)
        .cell(median[i], 3)
        .cell(quantile(times[i], 0.25), 3)
        .cell(quantile(times[i], 0.75), 3)
        .cell(padded / median[i], 2);
  }
  table.print(
      "Section 7.1: seconds per epoch under each execution strategy, " +
      std::to_string(kRounds) +
      " interleaved rounds (paper: per-user evaluation ~2x faster than "
      "padded batching)");
  std::printf(
      "The paper's 2x is the padding-waste elimination: compare the\n"
      "unpadded rows (sequential / per-user threads) against the padded\n"
      "batch. Padded batching amortizes per-op overhead across the batch,\n"
      "so its deficit is smaller than the raw %.2fx padding factor.\n"
      "Measured here, on %u hardware threads, from the medians: per-user\n"
      "threads (%zu trainer threads) %.2fx and sequential %.2fx the padded\n"
      "batch's speed, per-user threads %.2fx the sequential speed.\n",
      padding_factor, std::thread::hardware_concurrency(), kTrainerThreads,
      padded / median[0], padded / median[2], median[2] / median[0]);

  // ---- portable vs SIMD GEMM kernel under the padded-batch strategy ----
  // The padded strategy is the GEMM-bound one (every step is a [B x d]
  // product), so it is where the kernel choice shows up end-to-end.
  struct KernelChoice {
    const char* name;
    tensor::GemmKernel kernel;
  };
  // The simd rows dispatch to the AVX2/FMA kernels when the host has them
  // and degrade to naive otherwise (resolve_kernel in gemm.cpp), so the
  // table stays runnable on any machine.
  const KernelChoice kernels[] = {
      {"naive (portable)", tensor::GemmKernel::kNaive},
      {"simd", tensor::GemmKernel::kSimd},
  };
  Table kernel_table({"gemm_kernel", "seconds_per_epoch", "speedup_vs_naive"});
  double naive_time = 0;
  for (const KernelChoice& choice : kernels) {
    tensor::GemmConfigScope scope(choice.kernel);
    train::RnnNetworkConfig net_config;
    net_config.feature_size =
        train::feature_width(dataset.schema, train::FeatureMode::kFull);
    net_config.hidden_size = 64;
    net_config.mlp_hidden = 64;
    net_config.dropout = 0.0f;
    Rng rng(11);
    train::RnnNetwork network(net_config, rng);
    train::RnnTrainerConfig trainer_config;
    trainer_config.epochs = 1;
    trainer_config.minibatch_users = 16;
    trainer_config.strategy = train::BatchStrategy::kPaddedBatch;
    trainer_config.sequence.truncate_history = 2000;
    train::RnnTrainer trainer(network, trainer_config);
    Stopwatch sw;
    trainer.fit(dataset, users);
    const double seconds = sw.elapsed_seconds();
    if (choice.kernel == tensor::GemmKernel::kNaive) naive_time = seconds;
    kernel_table.row()
        .cell(choice.name)
        .cell(seconds, 2)
        .cell(naive_time / seconds, 2);
  }
  kernel_table.print("Padded-batch epoch, naive vs simd GEMM kernel");

  // ---- raw kernel throughput (the isolated naive-vs-simd comparison) ---
  const std::size_t dims[] = {128, 384};
  Table gemm_table({"shape", "kernel", "seconds", "gflops", "speedup"});
  for (const std::size_t d : dims) {
    Rng rng(7);
    const tensor::Matrix a = tensor::Matrix::randn(d, d, rng);
    const tensor::Matrix b = tensor::Matrix::randn(d, d, rng);
    const int reps = d <= 128 ? 80 : 10;
    const double flops = 2.0 * static_cast<double>(d) * d * d * reps;
    double base = 0;
    for (const KernelChoice& choice : kernels) {
      tensor::GemmConfigScope scope(choice.kernel);
      tensor::Matrix c(d, d);
      Stopwatch sw;
      for (int r = 0; r < reps; ++r) {
        c.set_zero();
        tensor::gemm_accumulate(a, b, c);
      }
      const double seconds = sw.elapsed_seconds();
      if (choice.kernel == tensor::GemmKernel::kNaive) base = seconds;
      const std::string shape = std::to_string(d) + "^3";
      gemm_table.row()
          .cell(shape)
          .cell(choice.name)
          .cell(seconds, 3)
          .cell(flops / seconds * 1e-9, 2)
          .cell(base / seconds, 2);
    }
  }
  gemm_table.print("Raw C += A*B kernel throughput, naive vs simd");
  return 0;
}
