// §9 microbenchmarks (google-benchmark): the raw compute cost of one
// model evaluation and one state update for each serving stack. The paper
// reports the TorchScript RNN as ~9.5x more compute than the GBDT model
// evaluation — while total serving cost still drops ~10x because KV
// lookups dominate (see bench_figure7_online_prauc for the end-to-end
// ledger).
#include <benchmark/benchmark.h>

#include <numeric>

#include "bench/common.hpp"
#include "serving/aggregation_service.hpp"
#include "serving/hidden_store.hpp"
#include "serving/precompute_service.hpp"
#include "train/sequence.hpp"

using namespace pp;

namespace {

struct Fixture {
  data::Dataset dataset;
  std::unique_ptr<models::RnnModel> rnn;
  std::unique_ptr<models::GbdtModel> gbdt;
  std::unique_ptr<features::FeaturePipeline> pipeline;
  tensor::Matrix hidden;
  tensor::Matrix predict_row;
  tensor::Matrix update_row;
  std::vector<float> gbdt_row;

  static Fixture& get() {
    static Fixture instance = build();
    return instance;
  }

  static Fixture build() {
    Fixture f;
    data::MobileTabConfig config;
    config.num_users = 300;
    config.days = 10;
    f.dataset = data::generate_mobile_tab(config);

    models::RnnModelConfig rnn_config;
    rnn_config.hidden_size = 128;  // paper serving dimensionality
    rnn_config.mlp_hidden = 128;
    rnn_config.epochs = 1;
    rnn_config.num_threads = 2;
    rnn_config.truncate_history = 100;
    f.rnn = std::make_unique<models::RnnModel>(f.dataset, rnn_config);
    std::vector<std::size_t> users(200);
    std::iota(users.begin(), users.end(), 0);
    f.rnn->fit(f.dataset, users);
    f.rnn->enable_quantized_serving();  // int8 replicas for BM_QuantizedScoring

    f.pipeline = std::make_unique<features::FeaturePipeline>(
        f.dataset.schema, features::FeatureSelection{},
        features::gbdt_encoding());
    const auto train = features::build_session_examples(
        f.dataset, users, *f.pipeline, 0, 0, 2);
    std::vector<std::size_t> valid_users;
    for (std::size_t u = 200; u < 250; ++u) valid_users.push_back(u);
    const auto valid = features::build_session_examples(
        f.dataset, valid_users, *f.pipeline, 0, 0, 2);
    f.gbdt = std::make_unique<models::GbdtModel>();
    models::GbdtModelConfig gbdt_config;
    gbdt_config.depth_search = false;
    gbdt_config.booster.tree.max_depth = 6;
    gbdt_config.booster.num_rounds = 100;  // XGBoost-default-like ensemble
    gbdt_config.booster.early_stopping_rounds = 0;
    f.gbdt->fit(train, valid, gbdt_config);

    // Serving-shaped rows, encoded as RnnPolicy encodes them: the one-hot
    // context and time of day, the T() gap bucket and (update only) the
    // access bit, so the zero-skipping kernels see serving's few nonzeros.
    // The hidden state folds in a fixture user's sessions before the one
    // predicted and updated.
    const auto& net = f.rnn->network();
    const auto& seq_cfg = f.rnn->sequence_config();
    const std::size_t fw = net.config().feature_size;
    const std::size_t tb = net.config().time_buckets;
    const features::LogBucketizer bucketizer(static_cast<int>(tb));
    const auto encode = [&](const data::Session& s, std::int64_t gap,
                            bool predict) {
      tensor::Matrix row(1, fw + tb + (predict ? 0 : 1));
      if (fw > 0 && (!predict || seq_cfg.context_at_predict)) {
        train::encode_step_features(f.rnn->schema(), seq_cfg.feature_mode,
                                    s.timestamp, s.context, row.row(0));
      }
      bucketizer.encode(gap, row.row(0).subspan(fw, tb));
      if (!predict) row.row(0)[fw + tb] = s.access ? 1.0f : 0.0f;
      return row;
    };
    const data::UserLog* user = &f.dataset.users.front();
    for (const data::UserLog& u : f.dataset.users) {
      if (u.sessions.size() > user->sessions.size()) user = &u;
    }
    const std::size_t target =
        std::min<std::size_t>(8, user->sessions.size() - 1);
    auto rnn_state = net.infer_initial_state();
    for (std::size_t i = 0; i < target; ++i) {
      const std::int64_t gap =
          i > 0 ? user->sessions[i].timestamp - user->sessions[i - 1].timestamp
                : 0;
      net.infer_update(rnn_state, encode(user->sessions[i], gap, false));
    }
    const data::Session& next = user->sessions[target];
    const std::int64_t gap =
        next.timestamp - user->sessions[target - 1].timestamp;
    f.hidden = rnn_state.hidden();
    f.predict_row = encode(next, gap, true);
    f.update_row = encode(next, gap, false);
    f.gbdt_row.assign(f.pipeline->dimension(), 0.0f);
    train.densify_row(0, f.gbdt_row);
    return f;
  }
};

void BM_RnnPredict(benchmark::State& state) {
  Fixture& f = Fixture::get();
  const auto& net = f.rnn->network();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.infer_logit(f.hidden, f.predict_row));
  }
  state.counters["MACs"] = static_cast<double>(net.predict_flops());
}
BENCHMARK(BM_RnnPredict);

void BM_RnnHiddenUpdate(benchmark::State& state) {
  Fixture& f = Fixture::get();
  const auto& net = f.rnn->network();
  auto rnn_state = net.infer_initial_state();
  for (auto _ : state) {
    net.infer_update(rnn_state, f.update_row);
    benchmark::DoNotOptimize(rnn_state.hidden());
  }
  state.counters["MACs"] = static_cast<double>(net.update_flops());
}
BENCHMARK(BM_RnnHiddenUpdate);

/// f32 vs int8 end-to-end policy scoring (§9 quantized serving): batched
/// score_sessions over a fully warmed store, KV lookups included. arg 0
/// selects the precision, arg 1 the batch size. Counters report the
/// per-user state record bytes and the state-vector bytes per dimension
/// (4 in f32, 1 + amortized scale in int8 — the §9 "single bytes instead
/// of floating-point numbers" claim); throughput is sessions/s, directly
/// comparable across the two precisions. The only batched (64, 256)
/// scoring measurement in either precision.
void BM_QuantizedScoring(benchmark::State& state) {
  Fixture& f = Fixture::get();
  const bool q8 = state.range(0) != 0;
  const auto batch = static_cast<std::size_t>(state.range(1));
  const auto codec =
      q8 ? serving::StateCodec::kInt8 : serving::StateCodec::kFloat32;
  serving::LocalKvStore kv;
  serving::HiddenStateStore store(kv, codec);
  serving::RnnPolicy policy(*f.rnn, store,
                            q8 ? serving::ScorePrecision::kInt8
                               : serving::ScorePrecision::kFloat32);
  // Warm every cohort user so each score pays the real lookup + state
  // ingest cost of its precision (f32: decode 512B; int8: raw 128B+scale).
  constexpr std::size_t kUsers = 256;
  for (std::size_t u = 0; u < kUsers; ++u) {
    serving::JoinedSession joined;
    joined.session_id = 10000 + u;
    joined.user_id = u;
    joined.session_start = f.dataset.end_time - 3600;
    joined.access = u % 2 == 0;
    policy.on_session_complete(joined);
  }
  std::vector<serving::SessionStart> starts;
  for (std::size_t b = 0; b < batch; ++b) {
    serving::SessionStart s;
    s.session_id = b;
    s.user_id = b % kUsers;
    s.t = f.dataset.end_time + static_cast<std::int64_t>(b);
    s.context = {static_cast<std::uint32_t>(b % 4), 0, 0, 0};
    starts.push_back(s);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.score_sessions(starts));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch));
  const auto& net = f.rnn->network();
  state.counters["bytes_per_state"] =
      static_cast<double>(store.encoded_bytes(net));
  const double dims = static_cast<double>(net.config().hidden_size);
  state.counters["state_bytes_per_dim"] =
      q8 ? (dims + 4.0) / dims : 4.0;  // payload + amortized scale
  state.counters["int8"] = q8 ? 1.0 : 0.0;
}
BENCHMARK(BM_QuantizedScoring)
    ->ArgNames({"int8", "batch"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({0, 256})
    ->Args({1, 256});

void BM_GbdtPredict(benchmark::State& state) {
  Fixture& f = Fixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.gbdt->predict_row(f.gbdt_row));
  }
  state.counters["trees"] =
      static_cast<double>(f.gbdt->booster().num_trees());
}
BENCHMARK(BM_GbdtPredict);

void BM_HiddenStateRoundTripFloat32(benchmark::State& state) {
  Fixture& f = Fixture::get();
  serving::LocalKvStore kv;
  serving::HiddenStateStore store(kv, serving::StateCodec::kFloat32);
  serving::StoredState stored;
  stored.state = f.rnn->network().infer_initial_state();
  stored.state.layers[0][0] = f.hidden;
  for (auto _ : state) {
    store.put(1, stored);
    benchmark::DoNotOptimize(store.get(1, f.rnn->network()));
  }
  state.counters["bytes"] =
      static_cast<double>(store.encoded_bytes(f.rnn->network()));
}
BENCHMARK(BM_HiddenStateRoundTripFloat32);

void BM_HiddenStateRoundTripInt8(benchmark::State& state) {
  Fixture& f = Fixture::get();
  serving::LocalKvStore kv;
  serving::HiddenStateStore store(kv, serving::StateCodec::kInt8);
  serving::StoredState stored;
  stored.state = f.rnn->network().infer_initial_state();
  stored.state.layers[0][0] = f.hidden;
  for (auto _ : state) {
    store.put(1, stored);
    benchmark::DoNotOptimize(store.get(1, f.rnn->network()));
  }
  state.counters["bytes"] =
      static_cast<double>(store.encoded_bytes(f.rnn->network()));
}
BENCHMARK(BM_HiddenStateRoundTripInt8);

void BM_AggregationServeFeatures(benchmark::State& state) {
  Fixture& f = Fixture::get();
  serving::LocalKvStore kv;
  serving::AggregationService service(*f.pipeline, kv);
  // Warm one user's aggregation state with realistic history.
  const auto& user = f.dataset.users[0];
  for (const auto& s : user.sessions) service.apply_session(1, s);
  features::SparseRow row;
  const std::array<std::uint32_t, 4> ctx{3, 0, 0, 0};
  std::int64_t t = f.dataset.end_time;
  for (auto _ : state) {
    service.serve_features(1, t, ctx, row);
    benchmark::DoNotOptimize(row);
  }
  state.counters["kv_lookups"] =
      static_cast<double>(service.lookups_per_prediction());
}
BENCHMARK(BM_AggregationServeFeatures);

}  // namespace

BENCHMARK_MAIN();
