// Serving-side contract of the obs layer, in the `obs` ctest tier:
// per-stage histograms actually populate from a scored batch, the stage
// sums tile the batch wall, collected series sum over live components
// only, and — the observe-only guarantee — scores are bit-identical with
// instrumentation on and off.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "data/generators.hpp"
#include "ingest/event_bus.hpp"
#include "obs/metrics.hpp"
#include "serving/hidden_store.hpp"
#include "serving/precompute_service.hpp"
#include "util/thread_pool.hpp"

namespace pp::serving {
namespace {

struct HistDelta {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
};

/// Count/sum of every global-registry histogram series of `name` whose
/// labels contain all of `want` — tests diff this across a scored batch
/// (the global registry accumulates across tests in this binary).
HistDelta hist_totals(const std::string& name,
                      const obs::MetricsRegistry::Labels& want) {
  HistDelta out;
  for (const auto& m : obs::MetricsRegistry::global().snapshot()) {
    if (m.name != name) continue;
    bool matches = true;
    for (const auto& [wk, wv] : want) {
      bool found = false;
      for (const auto& [k, v] : m.labels) {
        if (k == wk && v == wv) found = true;
      }
      matches = matches && found;
    }
    if (!matches) continue;
    out.count += m.hist.count;
    out.sum += m.hist.sum;
  }
  return out;
}

data::Dataset small_dataset() {
  data::MobileTabConfig config;
  config.num_users = 16;
  config.days = 3;
  return data::generate_mobile_tab(config);
}

std::vector<SessionStart> make_starts(std::size_t n) {
  std::vector<SessionStart> starts;
  for (std::uint64_t u = 0; u < n; ++u) {
    SessionStart s;
    s.session_id = 100 + u;
    s.user_id = u % 16;
    s.t = 1100000 + static_cast<std::int64_t>(u) * 333;
    s.context = {static_cast<std::uint32_t>(u % 7), 0, 0, 0};
    starts.push_back(s);
  }
  return starts;
}

void warm_policy(RnnPolicy& policy) {
  for (std::uint64_t u = 0; u < 8; ++u) {
    JoinedSession joined;
    joined.session_id = u;
    joined.user_id = u;
    joined.session_start = 1000000 + static_cast<std::int64_t>(u) * 500;
    joined.context = {static_cast<std::uint32_t>(u % 5), 1, 0, 0};
    joined.access = u % 2 == 0;
    policy.on_session_complete(joined);
  }
}

class ObsServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_period_ = obs::sample_period();
    saved_enabled_ = obs::timing_enabled();
    obs::set_timing_enabled(true);
    obs::set_sample_period(1);  // time every call — the tests are exact
  }
  void TearDown() override {
    obs::set_sample_period(saved_period_);
    obs::set_timing_enabled(saved_enabled_);
  }

 private:
  std::uint32_t saved_period_ = 8;
  bool saved_enabled_ = true;
};

TEST_F(ObsServingTest, StageHistogramsPopulateAndTileTheBatchWall) {
  const data::Dataset dataset = small_dataset();
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 16;
  rnn_config.mlp_hidden = 16;
  const models::RnnModel model(dataset, rnn_config);
  LocalKvStore kv;
  HiddenStateStore store(kv);
  RnnPolicy policy(model, store);
  warm_policy(policy);

  const obs::MetricsRegistry::Labels f32{{"precision", "f32"}};
  const auto stage_names = {"kv_get", "feature_encode", "head_gemm",
                            "sigmoid"};
  HistDelta before_stages;
  for (const char* stage : stage_names) {
    const auto d = hist_totals("pp_serving_stage_ns",
                               {{"stage", stage}, {"precision", "f32"}});
    before_stages.count += d.count;
    before_stages.sum += d.sum;
  }
  const HistDelta before_wall = hist_totals("pp_serving_batch_ns", f32);
  const HistDelta before_gru = hist_totals(
      "pp_serving_stage_ns", {{"stage", "gru_update"}, {"precision", "f32"}});

  const std::vector<SessionStart> starts = make_starts(12);
  policy.score_sessions(starts);
  JoinedSession joined;
  joined.session_id = 999;
  joined.user_id = 3;
  joined.session_start = 1200000;
  joined.context = {1, 0, 0, 0};
  joined.access = true;
  policy.on_session_complete(joined);

  // Every per-batch stage recorded exactly once for the one scored batch.
  for (const char* stage : {"kv_get", "feature_encode"}) {
    const auto d = hist_totals("pp_serving_stage_ns",
                               {{"stage", stage}, {"precision", "f32"}});
    EXPECT_GT(d.count, 0u) << stage;
  }
  const HistDelta after_wall = hist_totals("pp_serving_batch_ns", f32);
  EXPECT_EQ(after_wall.count, before_wall.count + 1);
  const HistDelta after_gru = hist_totals(
      "pp_serving_stage_ns", {{"stage", "gru_update"}, {"precision", "f32"}});
  EXPECT_EQ(after_gru.count, before_gru.count + 1);

  // Per-stage breakdown consistency: the in-batch stages (kv_get,
  // feature_encode, head_gemm, sigmoid) are laps/sub-sections of the same
  // scored batch, so their summed time cannot exceed the batch wall.
  HistDelta after_stages;
  for (const char* stage : stage_names) {
    const auto d = hist_totals("pp_serving_stage_ns",
                               {{"stage", stage}, {"precision", "f32"}});
    after_stages.count += d.count;
    after_stages.sum += d.sum;
  }
  EXPECT_GT(after_stages.count, before_stages.count);
  EXPECT_LE(after_stages.sum - before_stages.sum,
            after_wall.sum - before_wall.sum);
  EXPECT_GT(after_wall.sum, before_wall.sum);

  // Batch-size histogram saw the batch.
  const HistDelta sessions = hist_totals("pp_serving_batch_sessions", f32);
  EXPECT_GT(sessions.count, 0u);
}

TEST_F(ObsServingTest, ScoresBitIdenticalWithTimingOnAndOff) {
  const data::Dataset dataset = small_dataset();
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 16;
  rnn_config.mlp_hidden = 16;
  const models::RnnModel model(dataset, rnn_config);

  LocalKvStore kv_on, kv_off;
  HiddenStateStore store_on(kv_on), store_off(kv_off);
  RnnPolicy policy_on(model, store_on);
  RnnPolicy policy_off(model, store_off);
  warm_policy(policy_on);
  warm_policy(policy_off);

  const std::vector<SessionStart> starts = make_starts(16);
  obs::set_timing_enabled(true);
  const std::vector<double> scores_on = policy_on.score_sessions(starts);
  obs::set_timing_enabled(false);
  const std::vector<double> scores_off = policy_off.score_sessions(starts);
  obs::set_timing_enabled(true);

  ASSERT_EQ(scores_on.size(), scores_off.size());
  for (std::size_t i = 0; i < scores_on.size(); ++i) {
    // Bit-identical, not approximately equal: instrumentation must not
    // touch the scored numerics in any way.
    EXPECT_EQ(scores_on[i], scores_off[i]) << "session " << i;
  }
}

TEST_F(ObsServingTest, Int8StageSeriesAreLabeledSeparately) {
  const data::Dataset dataset = small_dataset();
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 16;
  rnn_config.mlp_hidden = 16;
  models::RnnModel model(dataset, rnn_config);
  model.enable_quantized_serving();
  LocalKvStore kv;
  HiddenStateStore store(kv, StateCodec::kInt8);
  RnnPolicy policy(model, store, ScorePrecision::kInt8);
  warm_policy(policy);

  const HistDelta before = hist_totals("pp_serving_batch_ns",
                                       {{"precision", "int8"}});
  policy.score_sessions(make_starts(8));
  const HistDelta after = hist_totals("pp_serving_batch_ns",
                                      {{"precision", "int8"}});
  EXPECT_EQ(after.count, before.count + 1);
  const auto kv_get = hist_totals("pp_serving_stage_ns",
                                  {{"stage", "kv_get"}, {"precision", "int8"}});
  EXPECT_GT(kv_get.count, 0u);
}

TEST_F(ObsServingTest, ThreadPoolReportsQueueDepthAndTaskWait) {
  const HistDelta before = hist_totals("pp_threadpool_task_wait_ns", {});
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    futures.reserve(16);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.submit([] {}));
    }
    ThreadPool::wait_all(futures);
    // The depth series exists while the pool lives (its instantaneous
    // value is racy by nature — only presence and kind are contractual).
    bool saw_depth = false;
    for (const auto& m : obs::MetricsRegistry::global().snapshot()) {
      if (m.name == "pp_threadpool_queue_depth") {
        saw_depth = true;
        EXPECT_EQ(m.kind, obs::MetricKind::kGauge);
      }
    }
    EXPECT_TRUE(saw_depth);
  }
  const HistDelta after = hist_totals("pp_threadpool_task_wait_ns", {});
  EXPECT_EQ(after.count, before.count + 16);
}

/// Global-registry value of one (name, labels) series, 0 when absent.
double gauge_value(const std::string& name,
                   const obs::MetricsRegistry::Labels& labels) {
  for (const auto& m : obs::MetricsRegistry::global().snapshot()) {
    if (m.name == name && m.labels == labels) return m.value;
  }
  return 0;
}

TEST_F(ObsServingTest, ShardedKvStoreSeriesAreTheSumOfItsShards) {
  const double writes_base = gauge_value("pp_kv_writes", {});
  const double hits_base = gauge_value("pp_kv_hits", {});
  {
    ShardedKvStore store(4);
    store.put("alpha", {1, 2, 3});
    store.put("beta", {4});
    store.get("alpha");
    // Every write lands in exactly one shard; the shards' series add up.
    EXPECT_EQ(gauge_value("pp_kv_writes", {}) - writes_base,
              static_cast<double>(store.stats().writes));
    EXPECT_EQ(gauge_value("pp_kv_hits", {}) - hits_base, 1.0);
  }
  EXPECT_EQ(gauge_value("pp_kv_writes", {}), writes_base);
}

/// A one-worker pool whose worker stays parked in a task until the
/// destructor, so `depth` further submissions stay queued.
struct ParkedPool {
  explicit ParkedPool(int depth) {
    std::promise<void> started;
    futures.push_back(pool.submit([&started, gate = gate] {
      started.set_value();
      gate.wait();
    }));
    started.get_future().wait();
    for (int i = 0; i < depth; ++i) futures.push_back(pool.submit([] {}));
  }
  ~ParkedPool() {
    release.set_value();
    ThreadPool::wait_all(futures);
  }

  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ThreadPool pool{1};
  std::vector<std::future<void>> futures;
};

TEST_F(ObsServingTest, QueueDepthsSumOverLiveInstancesOnly) {
  const obs::MetricsRegistry::Labels lane0{{"lane", "0"}};
  const double bus_base = gauge_value("pp_ingest_queue_depth", lane0);
  const double pool_base = gauge_value("pp_threadpool_queue_depth", {});

  ingest::EventBusConfig config;
  config.num_lanes = 1;
  ingest::EventBus survivor_bus(config);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(survivor_bus.publish(0, {1}));
  ParkedPool survivor_pool(2);
  {
    ingest::EventBus bus(config);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(bus.publish(0, {1}));
    ParkedPool pool(4);
    EXPECT_EQ(gauge_value("pp_ingest_queue_depth", lane0), bus_base + 8);
    EXPECT_EQ(gauge_value("pp_threadpool_queue_depth", {}), pool_base + 6);
  }
  EXPECT_EQ(gauge_value("pp_ingest_queue_depth", lane0), bus_base + 3);
  EXPECT_EQ(gauge_value("pp_threadpool_queue_depth", {}), pool_base + 2);
}

}  // namespace
}  // namespace pp::serving
