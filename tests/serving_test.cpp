#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <thread>

#include "data/generators.hpp"
#include "kv_reference.hpp"
#include "serving/online_experiment.hpp"
#include "serving_test_util.hpp"
#include "util/math.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace pp::serving {
namespace {

TEST(KvStore, StatsTrackTraffic) {
  LocalKvStore store;
  EXPECT_FALSE(store.get("missing").has_value());
  store.put("a", {1, 2, 3});
  store.put("a", {4, 5});  // overwrite shrinks footprint
  EXPECT_EQ(store.value_bytes(), 2u);
  const auto v = store.get("a");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, (std::vector<std::uint8_t>{4, 5}));
  const KvStats stats = store.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.writes, 2u);
  EXPECT_EQ(stats.bytes_read, 2u);
  EXPECT_EQ(stats.bytes_written, 5u);
  EXPECT_TRUE(store.erase("a"));
  EXPECT_EQ(store.size(), 0u);
}

TEST(ShardedKvStore, PartitionsKeysAndMergesAggregates) {
  ShardedKvStore store(4);
  EXPECT_EQ(store.num_shards(), 4u);
  std::size_t expected_bytes = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    const std::vector<std::uint8_t> value(i % 5 + 1,
                                          static_cast<std::uint8_t>(i));
    expected_bytes += value.size();
    std::string key = "k";
    key += std::to_string(i);
    store.put(key, value);
  }
  EXPECT_EQ(store.size(), 100u);
  EXPECT_EQ(store.value_bytes(), expected_bytes);
  for (std::size_t i = 0; i < 100; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    const auto v = store.get(key);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->size(), i % 5 + 1);
  }
  EXPECT_FALSE(store.get("missing").has_value());
  const KvStats merged = store.stats();
  EXPECT_EQ(merged.writes, 100u);
  EXPECT_EQ(merged.lookups, 101u);
  EXPECT_EQ(merged.hits, 100u);
  EXPECT_EQ(merged.bytes_written, expected_bytes);
  EXPECT_EQ(merged.bytes_read, expected_bytes);
  // The hash partition actually spreads keys over multiple shards (and
  // every write landed in exactly one of them).
  std::size_t shard_writes = 0, shards_used = 0;
  for (std::size_t s = 0; s < store.num_shards(); ++s) {
    shard_writes += store.shard_stats(s).writes;
    shards_used += store.shard_stats(s).writes > 0 ? 1 : 0;
  }
  EXPECT_EQ(shard_writes, 100u);
  EXPECT_GE(shards_used, 2u);
  EXPECT_TRUE(store.erase("k0"));
  EXPECT_FALSE(store.contains("k0"));
  EXPECT_EQ(store.size(), 99u);
  store.reset_stats();
  EXPECT_EQ(store.stats().lookups, 0u);
}

TEST(LocalKvStore, MatchesUnorderedMapReferenceOpByOp) {
  // kv_reference.hpp's seeded stream: new keys past several slot-table
  // doublings, same-size / larger / smaller / empty rewrites, erases and
  // re-puts, NUL-byte keys, values longer than an arena block, and enough
  // relocations to reach reclamation (util_test checks that on the bare
  // table).
  LocalKvStore store;
  kvtest::KvReference ref;
  const std::vector<kvtest::KvOp> ops = kvtest::kv_op_stream(0x5EEDull, 12000);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    kvtest::apply_both(store, ref, ops[i]);
    kvtest::expect_matches(store, ref, ops[i].key);
    if (i % 1000 == 999) kvtest::expect_same_contents(store, ref);
    if (::testing::Test::HasFailure()) return;
  }
  kvtest::expect_same_contents(store, ref);
}

TEST(SessionJoiner, JoinsContextAndAccessAtTimerFire) {
  std::vector<JoinedSession> joined;
  SessionJoiner joiner(1200, 60,
                       [&](const JoinedSession& s) { joined.push_back(s); });
  joiner.on_context(1, 100, 5000, {7, 1, 0, 0});
  joiner.on_access(1, 5600);
  joiner.advance_to(5000 + 1259);  // one second early: nothing fires
  EXPECT_TRUE(joined.empty());
  joiner.advance_to(5000 + 1260);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].user_id, 100u);
  EXPECT_TRUE(joined[0].access);
  EXPECT_EQ(joined[0].context[0], 7u);
  EXPECT_EQ(joined[0].completed_at, 6260);
}

TEST(SessionJoiner, NoAccessMeansNegativeLabel) {
  std::vector<JoinedSession> joined;
  SessionJoiner joiner(1200, 0,
                       [&](const JoinedSession& s) { joined.push_back(s); });
  joiner.on_context(5, 1, 1000, {});
  joiner.advance_to(10000);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_FALSE(joined[0].access);
}

TEST(SessionJoiner, FailureModesAreCountedNotFatal) {
  std::vector<JoinedSession> joined;
  SessionJoiner joiner(1200, 0,
                       [&](const JoinedSession& s) { joined.push_back(s); });
  joiner.on_context(1, 1, 1000, {});
  joiner.on_context(1, 1, 1000, {});  // duplicate context
  joiner.on_access(1, 1100);
  joiner.on_access(1, 1200);  // duplicate access
  joiner.on_access(99, 1100);  // orphan access (no context yet)
  joiner.advance_to(5000);
  joiner.on_access(1, 6000);  // late access: session already fired
  EXPECT_EQ(joined.size(), 1u);
  const JoinerStats& stats = joiner.stats();
  EXPECT_EQ(stats.duplicate_contexts, 1u);
  EXPECT_EQ(stats.duplicate_accesses, 1u);
  EXPECT_EQ(stats.orphan_accesses, 1u);
  EXPECT_EQ(stats.late_accesses, 1u);
  EXPECT_EQ(stats.joined, 1u);
}

TEST(SessionJoiner, RedeliveredContextAfterFireIsADuplicate) {
  std::vector<JoinedSession> joined;
  SessionJoiner joiner(600, 0,
                       [&](const JoinedSession& s) { joined.push_back(s); });
  joiner.on_context(1, 7, 1000, {}, /*score=*/0.75, /*prefetched=*/true);
  // An in-window duplicate does not replace the first delivery's record.
  joiner.on_context(1, 7, 1000, {}, /*score=*/0.25, /*prefetched=*/false);
  joiner.advance_to(1600);  // join timer at 1000 + 600 fires
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].score, 0.75);
  EXPECT_TRUE(joined[0].prefetched);

  // The bus redelivers the session's context and its access after the
  // window closed: neither may open or complete a second session.
  joiner.on_context(1, 7, 1000, {}, /*score=*/0.25, /*prefetched=*/false);
  joiner.on_access(1, 1100);
  joiner.advance_to(5000);
  EXPECT_EQ(joined.size(), 1u);
  EXPECT_EQ(joiner.buffered(), 0u);
  const JoinerStats& stats = joiner.stats();
  EXPECT_EQ(stats.contexts, 3u);
  EXPECT_EQ(stats.joined, 1u);
  EXPECT_EQ(stats.duplicate_contexts, 2u);
  EXPECT_EQ(stats.late_accesses, 1u);
  EXPECT_EQ(stats.orphan_accesses, 0u);
}

TEST(PrecomputeService, RedeliveredContextUpdatesStateOnce) {
  data::MobileTabConfig config;
  config.num_users = 4;
  config.days = 2;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 8;
  rnn_config.mlp_hidden = 8;
  const models::RnnModel model(dataset, rnn_config);
  LocalKvStore kv;
  HiddenStateStore store(kv);
  RnnPolicy policy(model, store);
  PrecomputeService service(policy, 0.5, 600, 0, 0);

  const std::array<std::uint32_t, data::kMaxContextFields> context{1, 0, 0,
                                                                   0};
  service.on_session_start(1, 7, 1000, context);
  service.on_access(1, 1100);
  service.advance_to(1600);  // the session joins: one GRU update
  // Redelivery of both events after the window closed.
  service.on_session_start(1, 7, 1000, context);
  service.on_access(1, 1100);
  service.flush();

  EXPECT_EQ(policy.cost_summary().state_updates, 1u);
  const OnlineMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.predictions(), 1u);  // one Figure 7 record
  EXPECT_EQ(metrics.accesses(), 1u);
  const JoinerStats joiner = service.joiner_stats();
  EXPECT_EQ(joiner.joined, 1u);
  EXPECT_EQ(joiner.duplicate_contexts, 1u);
  EXPECT_EQ(joiner.late_accesses, 1u);
}

TEST(PrecomputeService, DuplicateContextsAreNeitherScoredNorCounted) {
  // Two sessions, each delivered twice: session 1 again inside its own
  // snapshot group, session 2 again after it joined. Only the first
  // deliveries are scored (one KV lookup and one ledger prediction each);
  // the updates at join add one lookup each.
  data::MobileTabConfig config;
  config.num_users = 4;
  config.days = 2;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 8;
  rnn_config.mlp_hidden = 8;
  const models::RnnModel model(dataset, rnn_config);
  LocalKvStore kv;
  HiddenStateStore store(kv);
  RnnPolicy policy(model, store);
  // Threshold 0: every scored session prefetches, so a duplicate's false
  // can only come from its session having joined.
  PrecomputeService service(policy, 0.0, 600, 0, 0);

  const std::array<std::uint32_t, data::kMaxContextFields> context{1, 0, 0,
                                                                   0};
  // The in-group duplicate takes its session's first decision; the
  // redelivery after the join is false.
  const std::vector<SessionStart> starts{
      {1, 7, 1000, context}, {2, 8, 1000, context}, {1, 7, 1000, context}};
  EXPECT_EQ(service.on_session_starts(starts),
            (std::vector<bool>{true, true, true}));
  service.advance_to(1600);  // both sessions join
  EXPECT_FALSE(service.on_session_start(2, 8, 1000, context));
  service.flush();

  const ServingCostSummary cost = policy.cost_summary();
  EXPECT_EQ(cost.predictions, 2u);
  EXPECT_EQ(cost.kv.lookups, 4u);
  EXPECT_EQ(cost.state_updates, 2u);
  const JoinerStats joiner = service.joiner_stats();
  EXPECT_EQ(joiner.contexts, 4u);
  EXPECT_EQ(joiner.duplicate_contexts, 2u);
  EXPECT_EQ(joiner.joined, 2u);
}

TEST(SessionJoiner, FiresInEventTimeOrder) {
  std::vector<std::int64_t> starts;
  SessionJoiner joiner(100, 0, [&](const JoinedSession& s) {
    starts.push_back(s.session_start);
  });
  joiner.on_context(1, 1, 3000, {});
  joiner.on_context(2, 1, 1000, {});
  joiner.on_context(3, 1, 2000, {});
  joiner.flush();
  EXPECT_EQ(starts, (std::vector<std::int64_t>{1000, 2000, 3000}));
}

TEST(SessionJoiner, OrphanSlotsExpireInsteadOfLeaking) {
  std::vector<JoinedSession> joined;
  SessionJoiner joiner(100, 10,
                       [&](const JoinedSession& s) { joined.push_back(s); });
  joiner.on_access(42, 1000);  // context never arrives
  EXPECT_EQ(joiner.buffered(), 1u);
  joiner.advance_to(1109);  // expiry at event_time + window + grace = 1110
  EXPECT_EQ(joiner.buffered(), 1u);
  joiner.advance_to(1110);
  EXPECT_EQ(joiner.buffered(), 0u);
  EXPECT_EQ(joiner.stats().orphan_accesses, 1u);
  EXPECT_EQ(joiner.stats().orphan_drops, 1u);
  EXPECT_TRUE(joined.empty());
  // A context reusing the id after the drop starts a fresh slot; the
  // expired access does not bleed into it.
  joiner.on_context(42, 7, 1200, {});
  joiner.advance_to(1310);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_FALSE(joined[0].access);
}

TEST(SessionJoiner, AccessBeforeContextJoinsAtContextTimer) {
  std::vector<JoinedSession> joined;
  SessionJoiner joiner(100, 0,
                       [&](const JoinedSession& s) { joined.push_back(s); });
  // The access is processed first and even carries an earlier event time
  // than the session start, so its expiry timer fires before the join
  // timer — the slot must neither fire early nor be dropped.
  joiner.on_access(5, 400);          // expiry timer at 500
  joiner.on_context(5, 9, 450, {});  // join timer at 550
  joiner.advance_to(500);
  EXPECT_TRUE(joined.empty());
  EXPECT_EQ(joiner.buffered(), 1u);
  joiner.advance_to(550);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_TRUE(joined[0].access);
  EXPECT_EQ(joined[0].completed_at, 550);
  EXPECT_EQ(joiner.stats().orphan_drops, 0u);
  EXPECT_EQ(joiner.stats().joined, 1u);
}

TEST(SessionJoiner, FiredFifoEvictsOldestNotEverything) {
  std::vector<JoinedSession> joined;
  SessionJoiner joiner(10, 0,
                       [&](const JoinedSession& s) { joined.push_back(s); },
                       /*fired_capacity=*/4);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    joiner.on_context(id, id, static_cast<std::int64_t>(id) * 100, {});
  }
  joiner.advance_to(10000);  // fires all five, crossing the bound
  EXPECT_EQ(joiner.stats().joined, 5u);
  // The four most recently fired sessions still classify their accesses
  // as late; a clear-all purge would have forgotten every one of them and
  // parked each access in a dead pending slot.
  for (std::uint64_t id = 2; id <= 5; ++id) {
    joiner.on_access(id, 10000 + static_cast<std::int64_t>(id));
  }
  EXPECT_EQ(joiner.stats().late_accesses, 4u);
  EXPECT_EQ(joiner.stats().orphan_accesses, 0u);
  EXPECT_EQ(joiner.buffered(), 0u);
  // Only the single evicted-oldest session is (acceptably) misclassified.
  joiner.on_access(1, 10050);
  EXPECT_EQ(joiner.stats().late_accesses, 4u);
  EXPECT_EQ(joiner.stats().orphan_accesses, 1u);
}

class HiddenStoreCodec : public ::testing::TestWithParam<StateCodec> {};

TEST_P(HiddenStoreCodec, RoundTripsState) {
  // get() returns what put() stored, for a GRU, an LSTM (whose c follows
  // h) and a two-layer GRU. get_hidden, which reads only the exposed
  // hidden (the top layer's h) straight into a row, must return get()'s
  // bits and stamp, and its int8 form get_q8's bytes and scale.
  data::MobileTabConfig config;
  config.num_users = 2;
  config.days = 3;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  const bool int8 = GetParam() == StateCodec::kInt8;
  for (const auto& [cell, layers] :
       {std::pair{nn::CellType::kGru, 1}, std::pair{nn::CellType::kLstm, 1},
        std::pair{nn::CellType::kGru, 2}}) {
    models::RnnModelConfig rnn_config;
    rnn_config.hidden_size = 16;
    rnn_config.mlp_hidden = 8;
    rnn_config.cell = cell;
    rnn_config.num_layers = layers;
    const models::RnnModel model(dataset, rnn_config);
    const train::RnnNetwork& net = model.network();
    const std::string what =
        std::string(nn::to_string(cell)) + " x" + std::to_string(layers);

    LocalKvStore kv;
    HiddenStateStore store(kv, GetParam());
    StoredState state;
    state.state = net.infer_initial_state();
    Rng rng(3);
    for (auto& layer : state.state.layers) {
      for (auto& part : layer) {
        part = tensor::Matrix::randn(1, 16, rng, 0.0f, 0.4f);
      }
    }
    state.last_update_time = 123456;
    state.updates = 9;
    store.put(7, state);

    const auto loaded = store.get(7, net);
    ASSERT_TRUE(loaded.has_value()) << what;
    EXPECT_EQ(loaded->last_update_time, 123456) << what;
    EXPECT_EQ(loaded->updates, 9u) << what;
    const float tol = int8 ? 0.02f : 1e-7f;
    EXPECT_TRUE(loaded->state.hidden().approx_equal(state.state.hidden(), tol))
        << what;
    EXPECT_FALSE(store.get(8, net).has_value()) << what;

    std::vector<float> row(16, -1.0f);
    const auto stamp = store.get_hidden(7, net, row.data());
    ASSERT_TRUE(stamp.has_value()) << what;
    EXPECT_EQ(stamp->last_update_time, 123456) << what;
    EXPECT_EQ(stamp->updates, 9u) << what;
    EXPECT_EQ(std::memcmp(row.data(), loaded->state.hidden().data(),
                          row.size() * sizeof(float)),
              0)
        << what;
    EXPECT_FALSE(store.get_hidden(8, net, row.data()).has_value()) << what;
    std::vector<std::int8_t> bytes(16);
    float scale = 0.0f;
    if (int8 && cell == nn::CellType::kGru) {
      const auto q8 = store.get_q8(7, net);
      ASSERT_TRUE(q8.has_value()) << what;
      ASSERT_TRUE(store.get_hidden(7, net, bytes.data(), &scale)) << what;
      EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(),
                             q8->state.hidden().data()))
          << what;
      EXPECT_EQ(scale, q8->state.hidden().scale()) << what;
    } else {
      EXPECT_THROW(store.get_hidden(7, net, bytes.data(), &scale),
                   std::logic_error)
          << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, HiddenStoreCodec,
                         ::testing::Values(StateCodec::kFloat32,
                                           StateCodec::kInt8),
                         [](const auto& info) {
                           return info.param == StateCodec::kFloat32
                                      ? "float32"
                                      : "int8";
                         });

TEST(HiddenStore, GetRejectsRecordsFromDifferentlySizedModel) {
  // Serving memcpys hidden_size floats out of the returned state, so a
  // stale record written by a differently-sized model (config change with
  // a reused store) must throw instead of feeding an out-of-bounds read.
  // The cell shapes a record too: an LSTM stores (h, c) per layer, a GRU
  // h only, so a GRU record read by an LSTM would step past its state.
  // The exposed-hidden reads (get_hidden, f32 and int8) share get()'s
  // record walk and must reject every such record the same way, also a
  // record cut short after the part they return.
  data::MobileTabConfig config;
  config.num_users = 2;
  config.days = 2;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  models::RnnModelConfig small_config, big_config;
  small_config.hidden_size = 8;
  small_config.mlp_hidden = 8;
  big_config.hidden_size = 16;
  big_config.mlp_hidden = 16;
  models::RnnModelConfig lstm_config = small_config;
  lstm_config.cell = nn::CellType::kLstm;
  models::RnnModelConfig deep_config = small_config;
  deep_config.num_layers = 2;
  const models::RnnModel small(dataset, small_config);
  const models::RnnModel big(dataset, big_config);
  const models::RnnModel lstm(dataset, lstm_config);
  const models::RnnModel deep(dataset, deep_config);

  for (const StateCodec codec : {StateCodec::kFloat32, StateCodec::kInt8}) {
    const bool int8 = codec == StateCodec::kInt8;
    LocalKvStore kv;
    HiddenStateStore store(kv, codec);
    std::vector<float> f32_row(16);
    std::vector<std::int8_t> q8_row(16);
    float scale = 0.0f;
    const auto expect_read = [&](std::uint64_t id,
                                 const models::RnnModel& model) {
      const auto& net = model.network();
      EXPECT_TRUE(store.get(id, net).has_value());
      EXPECT_TRUE(store.get_hidden(id, net, f32_row.data()).has_value());
    };
    // get() and every exposed-hidden read throw std::runtime_error; the
    // int8 reads apply where the codec and a GRU model allow them.
    const auto expect_rejected = [&](std::uint64_t id,
                                     const models::RnnModel& model,
                                     const char* what) {
      const auto& net = model.network();
      EXPECT_THROW(store.get(id, net), std::runtime_error) << what;
      EXPECT_THROW(store.get_hidden(id, net, f32_row.data()),
                   std::runtime_error)
          << what;
      if (int8 && net.config().cell == nn::CellType::kGru) {
        EXPECT_THROW(store.get_q8(id, net), std::runtime_error) << what;
        EXPECT_THROW(store.get_hidden(id, net, q8_row.data(), &scale),
                     std::runtime_error)
            << what;
      }
    };

    StoredState state;
    state.state = small.network().infer_initial_state();
    store.put(1, state);
    expect_read(1, small);
    expect_rejected(1, big, "hidden size");
    expect_rejected(1, lstm, "GRU record, LSTM model");
    expect_rejected(1, deep, "layer count");

    StoredState lstm_state;
    lstm_state.state = lstm.network().infer_initial_state();
    store.put(2, lstm_state);
    expect_read(2, lstm);
    expect_rejected(2, small, "LSTM record, GRU model");

    StoredState deep_state;
    deep_state.state = deep.network().infer_initial_state();
    store.put(3, deep_state);
    expect_read(3, deep);
    expect_rejected(3, small, "two layers, one-layer model");

    // Truncated: the LSTM cut inside its trailing c part (its h, the part
    // get_hidden returns, is whole), mid-record and inside the header.
    const std::vector<std::uint8_t> whole = *kv.get("h:2");
    for (const std::size_t keep : {whole.size() - 1, whole.size() / 2,
                                   std::size_t{3}}) {
      kv.put("h:4", std::vector<std::uint8_t>(whole.begin(),
                                              whole.begin() + keep));
      expect_rejected(4, lstm, "truncated");
    }
    EXPECT_FALSE(store.get_hidden(5, small.network(), f32_row.data())
                     .has_value());
  }
}

TEST(HiddenStore, Int8QuartersTheFootprint) {
  data::MobileTabConfig config;
  config.num_users = 2;
  config.days = 2;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 128;
  models::RnnModel model(dataset, rnn_config);
  LocalKvStore kv_f32, kv_i8;
  HiddenStateStore f32(kv_f32, StateCodec::kFloat32);
  HiddenStateStore i8(kv_i8, StateCodec::kInt8);
  // 128-dim float32 state: the paper's 512-byte payload dominates.
  EXPECT_GE(f32.encoded_bytes(model.network()), 512u);
  EXPECT_LT(i8.encoded_bytes(model.network()),
            f32.encoded_bytes(model.network()) / 3);
}

TEST(HiddenStore, Int8SanitizesNonFiniteState) {
  data::MobileTabConfig config;
  config.num_users = 2;
  config.days = 2;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 8;
  rnn_config.mlp_hidden = 8;
  const models::RnnModel model(dataset, rnn_config);

  LocalKvStore kv;
  HiddenStateStore store(kv, StateCodec::kInt8);
  StoredState state;
  state.state = model.network().infer_initial_state();
  tensor::Matrix& part = state.state.layers[0][0];
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::array<float, 8> values{0.5f, -1.0f, nan, inf,
                                    -inf, 0.25f, -0.125f, 1.0f};
  for (std::size_t i = 0; i < values.size(); ++i) part[i] = values[i];
  store.put(3, state);

  const auto loaded = store.get(3, model.network());
  ASSERT_TRUE(loaded.has_value());
  const tensor::Matrix& decoded = loaded->state.hidden();
  // Every decoded entry is finite; the Infs did not poison the scale for
  // the finite entries (max finite |v| is 1.0, so scale = 1/127).
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_TRUE(std::isfinite(decoded[i])) << "entry " << i;
  }
  const float tol = 1.0f / 127.0f;
  EXPECT_NEAR(decoded[0], 0.5f, tol);
  EXPECT_NEAR(decoded[1], -1.0f, tol);
  EXPECT_EQ(decoded[2], 0.0f);       // NaN -> 0
  EXPECT_NEAR(decoded[3], 1.0f, tol);   // +Inf saturates to +max finite
  EXPECT_NEAR(decoded[4], -1.0f, tol);  // -Inf saturates to -max finite
  EXPECT_NEAR(decoded[5], 0.25f, tol);
  EXPECT_NEAR(decoded[6], -0.125f, tol);
  EXPECT_NEAR(decoded[7], 1.0f, tol);
}

TEST(HiddenStore, GetRejectsInvalidInt8Scale) {
  // The codec never writes a scale outside (0, +Inf), but a record is
  // only bytes: a NaN, infinite, zero or negative scale would decode to
  // non-finite or silently wrong states and flow into the int8 gates.
  data::MobileTabConfig config;
  config.num_users = 2;
  config.days = 2;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 8;
  rnn_config.mlp_hidden = 8;
  models::RnnModel model(dataset, rnn_config);
  model.enable_quantized_serving();

  LocalKvStore kv;
  HiddenStateStore store(kv, StateCodec::kInt8);
  const auto record = [](float scale) {
    BinaryWriter writer;
    writer.write_i64(100);  // last_update_time
    writer.write_u32(1);    // updates
    writer.write_u32(1);    // layers
    writer.write_u32(1);    // parts
    writer.write_u32(1);    // rows
    writer.write_u32(8);    // cols
    writer.write_f32(scale);
    const std::int8_t bytes[8] = {1, -2, 3, -4, 5, -6, 7, -127};
    writer.write_bytes(bytes, sizeof(bytes));
    return writer.take();
  };
  kv.put("h:1", record(0.01f));
  ASSERT_TRUE(store.get(1, model.network()).has_value());
  ASSERT_TRUE(store.get_q8(1, model.network()).has_value());
  std::vector<float> f32_row(8);
  std::vector<std::int8_t> q8_row(8);
  float row_scale = 0.0f;
  ASSERT_TRUE(store.get_hidden(1, model.network(), f32_row.data()));
  ASSERT_TRUE(
      store.get_hidden(1, model.network(), q8_row.data(), &row_scale));
  EXPECT_EQ(row_scale, 0.01f);

  const float inf = std::numeric_limits<float>::infinity();
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(), inf, -inf,
                       0.0f, -1.0f};
  for (const float scale : bad) {
    kv.put("h:2", record(scale));
    EXPECT_THROW(store.get(2, model.network()), std::runtime_error)
        << "scale " << scale;
    EXPECT_THROW(store.get_q8(2, model.network()), std::runtime_error)
        << "scale " << scale;
    EXPECT_THROW(store.get_hidden(2, model.network(), f32_row.data()),
                 std::runtime_error)
        << "scale " << scale;
    EXPECT_THROW(
        store.get_hidden(2, model.network(), q8_row.data(), &row_scale),
        std::runtime_error)
        << "scale " << scale;
  }
}

TEST(AggregationService, TwentyLookupsPerPredictionForMobileTab) {
  // 2 context fields -> 4 subsets; 4 windows * 4 + 4 = 20 (§9).
  data::ContextSchema schema;
  schema.fields = {{"unread", 100, false, true},
                   {"active_tab", 8, false, false}};
  features::FeaturePipeline pipeline(schema, {},
                                     features::gbdt_encoding());
  LocalKvStore kv;
  AggregationService service(pipeline, kv);
  EXPECT_EQ(service.lookups_per_prediction(), 20u);

  features::SparseRow row;
  const std::array<std::uint32_t, 4> ctx{3, 1, 0, 0};
  service.serve_features(1, 1590969600, ctx, row);
  EXPECT_EQ(kv.stats().lookups, 20u);

  data::Session session;
  session.timestamp = 1590969600;
  session.context = ctx;
  session.access = 1;
  service.apply_session(1, session);
  EXPECT_GT(kv.stats().writes, 0u);
  EXPECT_GT(service.live_keys(1), 0u);
}

TEST(OnlineExperiment, EndToEndColdStartReplay) {
  data::MobileTabConfig config;
  config.num_users = 120;
  config.days = 10;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  std::vector<std::size_t> train_users(90);
  std::iota(train_users.begin(), train_users.end(), 0);
  std::vector<std::size_t> cohort;
  for (std::size_t u = 90; u < 120; ++u) cohort.push_back(u);

  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 12;
  rnn_config.mlp_hidden = 12;
  rnn_config.epochs = 2;
  rnn_config.num_threads = 2;
  rnn_config.truncate_history = 100;
  models::RnnModel rnn(dataset, rnn_config);
  rnn.fit(dataset, train_users);

  features::FeaturePipeline pipeline(dataset.schema, {},
                                     features::gbdt_encoding());
  const auto train_batch = features::build_session_examples(
      dataset, train_users, pipeline, 0, 0, 2);
  std::vector<std::size_t> valid_users{85, 86, 87, 88, 89};
  const auto valid_batch = features::build_session_examples(
      dataset, valid_users, pipeline, 0, 0, 2);
  models::GbdtModel gbdt;
  models::GbdtModelConfig gbdt_config;
  gbdt_config.depth_search = false;
  gbdt_config.booster.num_rounds = 20;
  gbdt.fit(train_batch, valid_batch, gbdt_config);

  OnlineExperimentConfig exp_config;
  exp_config.rnn_threshold = 0.3;
  exp_config.gbdt_threshold = 0.3;
  const OnlineExperimentResult result = run_online_experiment(
      dataset, cohort, rnn, gbdt, pipeline, exp_config);

  EXPECT_GT(result.sessions, 0u);
  EXPECT_EQ(result.rnn.predictions, result.sessions);
  EXPECT_EQ(result.gbdt.predictions, result.sessions);
  EXPECT_EQ(result.rnn.daily_pr_auc.size(), result.gbdt.daily_pr_auc.size());
  // Joiner processed every session exactly once.
  EXPECT_EQ(result.rnn.joiner.joined, result.sessions);

  // The headline systems claim: the RNN pipeline does ~1 lookup per
  // prediction, the GBDT pipeline ~20 (§9).
  EXPECT_NEAR(result.rnn.costs.lookups_per_prediction(), 1.0, 1.1);
  EXPECT_NEAR(result.gbdt.costs.lookups_per_prediction(), 20.0, 1.0);
  // Prefetch accounting is internally consistent.
  EXPECT_LE(result.rnn.successful_prefetches, result.rnn.prefetches);
  EXPECT_LE(result.rnn.successful_prefetches, result.rnn.accesses);
  EXPECT_EQ(result.rnn.accesses, result.gbdt.accesses);
}

TEST(RnnPolicy, BatchedScoringMatchesSequentialExactly) {
  data::MobileTabConfig config;
  config.num_users = 30;
  config.days = 5;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 16;
  rnn_config.mlp_hidden = 16;
  const models::RnnModel model(dataset, rnn_config);

  LocalKvStore kv_seq, kv_batch;
  HiddenStateStore store_seq(kv_seq), store_batch(kv_batch);
  RnnPolicy sequential(model, store_seq);
  RnnPolicy batched(model, store_batch);

  // Warm both stores identically: a couple of completed sessions for the
  // first 8 users; users 8+ stay cold.
  for (std::uint64_t u = 0; u < 8; ++u) {
    for (int s = 0; s < 2; ++s) {
      JoinedSession joined;
      joined.session_id = u * 10 + static_cast<std::uint64_t>(s);
      joined.user_id = u;
      joined.session_start = 1000000 + static_cast<std::int64_t>(u) * 500 +
                             s * 7200;
      joined.context = {static_cast<std::uint32_t>(u % 5), 1, 0, 0};
      joined.access = (u + static_cast<std::uint64_t>(s)) % 2 == 0;
      sequential.on_session_complete(joined);
      batched.on_session_complete(joined);
    }
  }

  std::vector<SessionStart> starts;
  for (std::uint64_t u = 0; u < 16; ++u) {
    SessionStart s;
    s.session_id = 100 + u;
    s.user_id = u;
    s.t = 1100000 + static_cast<std::int64_t>(u) * 333;
    s.context = {static_cast<std::uint32_t>(u % 7), 0, 0, 0};
    starts.push_back(s);
  }

  const std::vector<double> batch_scores = batched.score_sessions(starts);
  ASSERT_EQ(batch_scores.size(), starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const double one = sequential.score_session(starts[i].user_id,
                                                starts[i].t,
                                                starts[i].context);
    // Exact: GEMM rows are batch-independent, so batched scoring is
    // bit-identical to per-session scoring.
    EXPECT_EQ(batch_scores[i], one) << "session " << i;
  }

  // The cost ledger must not notice the batching: same prediction count,
  // same model FLOPs, same per-user KV traffic.
  const ServingCostSummary cost_seq = sequential.cost_summary();
  const ServingCostSummary cost_batch = batched.cost_summary();
  EXPECT_EQ(cost_batch.predictions, cost_seq.predictions);
  EXPECT_EQ(cost_batch.state_updates, cost_seq.state_updates);
  EXPECT_EQ(cost_batch.model_flops, cost_seq.model_flops);
  EXPECT_EQ(cost_batch.kv.lookups, cost_seq.kv.lookups);
  EXPECT_EQ(cost_batch.kv.hits, cost_seq.kv.hits);
  EXPECT_EQ(cost_batch.kv.bytes_read, cost_seq.kv.bytes_read);
  EXPECT_EQ(cost_batch.storage_bytes, cost_seq.storage_bytes);
  EXPECT_EQ(cost_batch.live_keys, cost_seq.live_keys);
}

/// Delegating policy that keeps every served score, per user in serving
/// order.
class ScoreRecordingPolicy final : public PrecomputePolicy {
 public:
  explicit ScoreRecordingPolicy(RnnPolicy& inner) : inner_(&inner) {}

  double score_session(std::uint64_t user_id, std::int64_t t,
                       std::span<const std::uint32_t> context) override {
    const double score = inner_->score_session(user_id, t, context);
    served[user_id].push_back(score);
    return score;
  }
  void on_session_complete(const JoinedSession& joined) override {
    inner_->on_session_complete(joined);
  }
  ServingCostSummary cost_summary() const override {
    return inner_->cost_summary();
  }
  const char* name() const override { return inner_->name(); }

  std::map<std::uint64_t, std::vector<double>> served;

 private:
  RnnPolicy* inner_;
};

TEST(RnnPolicy, ServedScoresEqualOfflineReplayInBothPrecisions) {
  // The online prequential gate judges a model by RnnModel::score /
  // score_q8, so those must be exactly what serving scores: replaying the
  // cohort through PrecomputeService with the dataset's update lag
  // (window = session_length, grace = update_latency) reproduces the
  // offline replay bit for bit, in each precision — also for a model whose
  // history cap is below the longest user's session count (the cap bounds
  // training; serving never truncates). The f32 arm also serves an LSTM
  // (its stored c follows the h that scoring reads) and a two-layer GRU
  // (scoring skips the lower layer): the exposed-hidden read must pick the
  // h the offline replay scores from.
  data::MobileTabConfig config;
  config.num_users = 40;
  config.days = 6;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  std::vector<std::size_t> users(dataset.users.size());
  std::iota(users.begin(), users.end(), 0);
  std::size_t longest = 0;
  for (const data::UserLog& user : dataset.users) {
    longest = std::max(longest, user.sessions.size());
  }
  ASSERT_GT(longest, 2u);
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 12;
  rnn_config.mlp_hidden = 12;
  rnn_config.num_threads = 2;

  struct Item {
    std::int64_t t;
    std::size_t user;
    const data::Session* session;
  };
  std::vector<Item> stream;
  for (const std::size_t u : users) {
    for (const data::Session& s : dataset.users[u].sessions) {
      stream.push_back({s.timestamp, u, &s});
    }
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Item& a, const Item& b) { return a.t < b.t; });

  struct Variant {
    nn::CellType cell;
    int layers;
  };
  const std::size_t default_truncate = rnn_config.truncate_history;
  for (const Variant variant : {Variant{nn::CellType::kGru, 1},
                                Variant{nn::CellType::kLstm, 1},
                                Variant{nn::CellType::kGru, 2}}) {
    rnn_config.cell = variant.cell;
    rnn_config.num_layers = variant.layers;
    // int8 serving is GRU-only; the one-layer GRU runs both precisions.
    const bool f32_only =
        variant.cell != nn::CellType::kGru || variant.layers != 1;
    for (const std::size_t truncate : {default_truncate, longest / 2}) {
      rnn_config.truncate_history = truncate;
      models::RnnModel model(dataset, rnn_config);
      model.fit(dataset, users);
      if (!f32_only) model.enable_quantized_serving();
      for (const ScorePrecision precision :
           {ScorePrecision::kFloat32, ScorePrecision::kInt8}) {
        const bool int8 = precision == ScorePrecision::kInt8;
        if (int8 && f32_only) continue;
        LocalKvStore kv;
        HiddenStateStore store(
            kv, int8 ? StateCodec::kInt8 : StateCodec::kFloat32);
        RnnPolicy policy(model, store, precision);
        const std::string what = std::string(policy.name()) + " " +
                                 nn::to_string(variant.cell) + " x" +
                                 std::to_string(variant.layers) +
                                 " truncate " + std::to_string(truncate);
        ScoreRecordingPolicy recorder(policy);
        PrecomputeService service(recorder, 0.5, dataset.session_length,
                                  dataset.update_latency,
                                  dataset.start_time);
        std::uint64_t session_id = 1;
        for (const Item& item : stream) {
          service.on_session_start(session_id, item.user, item.t,
                                   item.session->context);
          if (item.session->access) {
            service.on_access(session_id,
                              item.t + dataset.session_length / 2);
          }
          ++session_id;
        }
        service.flush();

        const train::ScoredSeries offline = int8
                                                ? model.score_q8(dataset, users)
                                                : model.score(dataset, users);
        std::size_t i = 0;
        for (const std::size_t u : users) {
          for (const double served : recorder.served[u]) {
            ASSERT_LT(i, offline.scores.size()) << what;
            EXPECT_EQ(served, offline.scores[i])
                << what << " user " << u << " prediction " << i;
            ++i;
          }
        }
        EXPECT_EQ(i, offline.scores.size()) << what;
        EXPECT_GT(i, 100u) << what;
      }
    }
  }
}

TEST(PrecomputePolicy, DefaultBatchedScoringLoopsScoreSession) {
  // The base-class fallback must agree with per-call scoring for policies
  // without a batched model path (GBDT).
  LocalKvStore kv_seq, kv_batch;
  data::MobileTabConfig config;
  config.num_users = 30;
  config.days = 4;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  features::FeaturePipeline data_pipeline(dataset.schema, {},
                                          features::gbdt_encoding());
  std::vector<std::size_t> train_users(20);
  std::iota(train_users.begin(), train_users.end(), 0);
  const auto train_batch = features::build_session_examples(
      dataset, train_users, data_pipeline, 0, 0, 1);
  std::vector<std::size_t> valid_users{20, 21, 22, 23};
  const auto valid_batch = features::build_session_examples(
      dataset, valid_users, data_pipeline, 0, 0, 1);
  models::GbdtModel gbdt;
  models::GbdtModelConfig gbdt_config;
  gbdt_config.depth_search = false;
  gbdt_config.booster.num_rounds = 5;
  gbdt.fit(train_batch, valid_batch, gbdt_config);

  AggregationService agg_a(data_pipeline, kv_seq);
  AggregationService agg_b(data_pipeline, kv_batch);
  GbdtPolicy sequential(gbdt, data_pipeline, agg_a);
  GbdtPolicy batched(gbdt, data_pipeline, agg_b);

  std::vector<SessionStart> starts;
  for (std::uint64_t u = 0; u < 6; ++u) {
    SessionStart s;
    s.session_id = u;
    s.user_id = u;
    s.t = dataset.end_time + static_cast<std::int64_t>(u);
    s.context = {static_cast<std::uint32_t>(u % 3), 0, 0, 0};
    starts.push_back(s);
  }
  const std::vector<double> batch_scores = batched.score_sessions(starts);
  ASSERT_EQ(batch_scores.size(), starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    EXPECT_EQ(batch_scores[i],
              sequential.score_session(starts[i].user_id, starts[i].t,
                                       starts[i].context));
  }
  EXPECT_EQ(batched.cost_summary().predictions,
            sequential.cost_summary().predictions);
}

TEST(PrecomputeService, BatchedSessionStartsMatchSequentialDecisions) {
  data::MobileTabConfig config;
  config.num_users = 20;
  config.days = 4;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 8;
  rnn_config.mlp_hidden = 8;
  const models::RnnModel model(dataset, rnn_config);

  LocalKvStore kv_seq, kv_batch;
  HiddenStateStore store_seq(kv_seq), store_batch(kv_batch);
  RnnPolicy policy_seq(model, store_seq);
  RnnPolicy policy_batch(model, store_batch);
  PrecomputeService service_seq(policy_seq, 0.5, 1200, 60, 0);
  PrecomputeService service_batch(policy_batch, 0.5, 1200, 60, 0);

  // All sessions start at the same instant, so no joiner timer can fire
  // mid-batch and the two paths see identical state.
  std::vector<SessionStart> starts;
  for (std::uint64_t u = 0; u < 10; ++u) {
    SessionStart s;
    s.session_id = u;
    s.user_id = u;
    s.t = 5000;
    s.context = {static_cast<std::uint32_t>(u % 4), 0, 0, 0};
    starts.push_back(s);
  }
  const std::vector<bool> batch_decisions =
      service_batch.on_session_starts(starts);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const bool decision = service_seq.on_session_start(
        starts[i].session_id, starts[i].user_id, starts[i].t,
        starts[i].context);
    EXPECT_EQ(batch_decisions[i], decision) << "session " << i;
  }
  service_seq.flush();
  service_batch.flush();
  EXPECT_EQ(service_batch.metrics().predictions(),
            service_seq.metrics().predictions());
  EXPECT_EQ(service_batch.joiner_stats().joined,
            service_seq.joiner_stats().joined);
}

TEST(PrecomputeService, MixedTimestampBatchMatchesSequentialReplay) {
  data::MobileTabConfig config;
  config.num_users = 10;
  config.days = 3;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 8;
  rnn_config.mlp_hidden = 8;
  const models::RnnModel model(dataset, rnn_config);

  LocalKvStore kv_seq, kv_batch;
  HiddenStateStore store_seq(kv_seq), store_batch(kv_batch);
  RnnPolicy policy_seq(model, store_seq);
  RnnPolicy policy_batch(model, store_batch);
  // Short window so completions land inside the batch's time span: the
  // session at t=2000 must see the hidden updates of the sessions that
  // fired at t+110 — advancing only to the earliest t would score it
  // against a cold store.
  PrecomputeService service_seq(policy_seq, 0.5, 100, 10, 0);
  PrecomputeService service_batch(policy_batch, 0.5, 100, 10, 0);

  auto make = [](std::uint64_t sid, std::uint64_t uid, std::int64_t t) {
    SessionStart s;
    s.session_id = sid;
    s.user_id = uid;
    s.t = t;
    s.context = {static_cast<std::uint32_t>(uid % 3), 0, 0, 0};
    return s;
  };
  // Deliberately unsorted, with a revisit of user 0 after its first
  // session's window has closed.
  const std::vector<SessionStart> batch{
      make(3, 0, 2000), make(1, 0, 1000), make(4, 1, 1105),
      make(2, 1, 1050)};

  const std::vector<bool> decisions = service_batch.on_session_starts(batch);

  const std::vector<std::size_t> order = time_order(batch);
  std::vector<bool> seq_decisions(batch.size());
  for (const std::size_t i : order) {
    seq_decisions[i] = service_seq.on_session_start(
        batch[i].session_id, batch[i].user_id, batch[i].t, batch[i].context);
  }
  EXPECT_EQ(decisions, seq_decisions);
  // The revisit must have hit the warmed store in both paths.
  EXPECT_GT(policy_batch.cost_summary().kv.hits, 0u);
  expect_equal_ledgers(policy_batch.cost_summary(),
                       policy_seq.cost_summary());
  service_seq.flush();
  service_batch.flush();
  expect_equal_ledgers(policy_batch.cost_summary(),
                       policy_seq.cost_summary());
  expect_equal_joiners(service_batch.joiner_stats(),
                       service_seq.joiner_stats());
  EXPECT_EQ(service_batch.metrics().predictions(),
            service_seq.metrics().predictions());
}

// The multi-round threaded/sharded replay stress test and the
// pool-worker-driver deadlock regression live in serving_stress_test.cpp
// (ctest label `stress`), so the fast tiers can fail first.

TEST(OnlineMetrics, PrecisionRecallLedger) {
  OnlineMetrics metrics(0);
  metrics.record(100, 0.9, true, true);    // successful prefetch
  metrics.record(200, 0.8, true, false);   // wasted prefetch
  metrics.record(300, 0.2, false, true);   // missed access
  metrics.record(86400 + 10, 0.7, true, true);
  EXPECT_EQ(metrics.prefetches(), 3u);
  EXPECT_EQ(metrics.successful_prefetches(), 2u);
  EXPECT_EQ(metrics.accesses(), 3u);
  EXPECT_NEAR(metrics.precision(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(metrics.recall(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(metrics.days(), 2u);
}

}  // namespace
}  // namespace pp::serving
