// §7.1: minibatch execution strategies. The paper reports that evaluating
// each user on its own thread and accumulating gradients ("custom
// parallelism") trains about 2x faster than padding user histories to a
// uniform length, because the history-length distribution is long-tailed
// (Figure 5) and padded steps are wasted work.
//
// This bench times one epoch of identical training work under all three
// strategies on an MPU-like workload with heavy-tailed history lengths.
#include <numeric>
#include <thread>

#include "bench/common.hpp"
#include "tensor/gemm.hpp"

using namespace pp;
using namespace pp::bench;

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
  Table table({"strategy", "seconds_per_epoch", "speedup_vs_padded"});
  double padded_time = 0;
  std::vector<double> times;
  for (const Strategy& s : strategies) {
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
    trainer_config.strategy = s.strategy;
    trainer_config.num_threads = kTrainerThreads;
    trainer_config.sequence.truncate_history = 2000;
    train::RnnTrainer trainer(network, trainer_config);
    Stopwatch sw;
    trainer.fit(dataset, users);
    times.push_back(sw.elapsed_seconds());
    if (s.strategy == train::BatchStrategy::kPaddedBatch) {
      padded_time = times.back();
    }
  }
  for (std::size_t i = 0; i < 3; ++i) {
    table.row()
        .cell(strategies[i].name)
        .cell(times[i], 2)
        .cell(padded_time / times[i], 2);
  }
  table.print(
      "Section 7.1: one epoch under each execution strategy (paper: "
      "per-user evaluation ~2x faster than padded batching)");
  std::printf(
      "The paper's 2x is the padding-waste elimination: compare the\n"
      "unpadded rows (sequential / per-user threads) against the padded\n"
      "batch. Padded batching amortizes per-op overhead across the batch,\n"
      "so its deficit is smaller than the raw %.2fx padding factor.\n"
      "Measured here, on %u hardware threads: per-user threads (%zu\n"
      "trainer threads) %.2fx and sequential %.2fx the padded batch's\n"
      "speed, per-user threads %.2fx the sequential speed.\n",
      padding_factor, std::thread::hardware_concurrency(), kTrainerThreads,
      padded_time / times[0], padded_time / times[2], times[2] / times[0]);

  // ---- old vs new GEMM kernel under the padded-batch strategy ----------
  // The padded strategy is the GEMM-bound one (every step is a [B x d]
  // product), so it is where the blocked kernel shows up end-to-end.
  struct KernelChoice {
    const char* name;
    tensor::GemmKernel kernel;
  };
  // The simd rows dispatch to the AVX2/FMA kernels when the host has them
  // and degrade to blocked otherwise (resolve_kernel in gemm.cpp), so the
  // table stays runnable on any machine.
  const KernelChoice kernels[] = {
      {"naive (seed)", tensor::GemmKernel::kNaive},
      {"blocked", tensor::GemmKernel::kBlocked},
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
  kernel_table.print(
      "Padded-batch epoch, seed GEMM vs blocked and simd kernels");

  // ---- raw kernel throughput (the isolated old-vs-new comparison) ------
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
  gemm_table.print("Raw C += A*B kernel throughput, old (naive) vs new");
  return 0;
}
