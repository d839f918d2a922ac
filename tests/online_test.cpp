// The `online` ctest tier: the continual-learning subsystem — session
// replay buffer retention, versioned ModelRegistry hot-swap, the
// OnlineLearner's prequential gate (no publish path bypasses it), Adam
// state save/load round-trips, deterministic hot-swap serving parity, and
// the end-to-end drift-cohort experiment where the online arm's late-day
// PR-AUC must hold at or above the frozen arm's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <thread>

#include "data/generators.hpp"
#include "features/examples.hpp"
#include "nn/optimizer.hpp"
#include "online/model_registry.hpp"
#include "online/online_learner.hpp"
#include "online/replay_buffer.hpp"
#include "online_test_util.hpp"
#include "serving/online_experiment.hpp"
#include "serving/precompute_service.hpp"
#include "serving_test_util.hpp"
#include "util/thread_pool.hpp"

namespace pp::online {
namespace {

using serving::JoinedSession;
using serving::SessionStart;
using tensor::Matrix;
using testutil::all_users;
using testutil::ctx;
using testutil::drift_cohort;
using testutil::feed_cohort;
using testutil::make_joined;
using testutil::small_rnn_config;
using testutil::trained_drift_model;

/// begin_batch()/model_version() require the policy's serialization
/// capability (held by the service wherever it calls them). These tests
/// drive the policy directly from one thread, so they claim the token for
/// the single call the same way the service does.
void pin_batch(serving::PrecomputePolicy& policy) {
  SerialSection serial(policy.serial_token());
  policy.begin_batch();
}

std::uint64_t pinned_version(const serving::RnnPolicy& policy) {
  SerialSection serial(policy.serial_token());
  return policy.model_version();
}

// ------------------------------------------------------------- replay buffer

TEST(SessionReplayBuffer, PerUserCapEvictsHeavyUserOldestFirst) {
  ReplayBufferConfig config;
  config.capacity = 1000;
  config.per_user_cap = 4;
  SessionReplayBuffer buffer(config);
  for (int i = 0; i < 10; ++i) {
    buffer.add(7, 1000 + i, ctx(static_cast<std::uint32_t>(i % 2)),
               i % 2 == 0);
  }
  buffer.add(8, 5000, ctx(1), true);
  EXPECT_EQ(buffer.size(), 5u);  // 4 for the heavy user + 1
  EXPECT_EQ(buffer.stats().observed, 11u);
  EXPECT_EQ(buffer.stats().evicted_user_cap, 6u);
  EXPECT_EQ(buffer.stats().evicted_capacity, 0u);

  data::Dataset meta;
  meta.schema.fields = {{"ctx", 2, false, false}};
  const data::Dataset snap = buffer.snapshot(meta);
  ASSERT_EQ(snap.users.size(), 2u);
  // Heavy user keeps only the 4 most recent sessions, ascending.
  const data::UserLog& heavy = snap.users[0];
  EXPECT_EQ(heavy.user_id, 7u);
  ASSERT_EQ(heavy.sessions.size(), 4u);
  EXPECT_EQ(heavy.sessions.front().timestamp, 1006);
  EXPECT_EQ(heavy.sessions.back().timestamp, 1009);
}

TEST(SessionReplayBuffer, CapacityEvictsGloballyOldest) {
  ReplayBufferConfig config;
  config.capacity = 6;
  config.per_user_cap = 100;
  SessionReplayBuffer buffer(config);
  // Three users interleaved; the oldest arrivals go first regardless of
  // which user owns them.
  for (int i = 0; i < 9; ++i) {
    buffer.add(static_cast<std::uint64_t>(i % 3), 100 + i, ctx(0), false);
  }
  EXPECT_EQ(buffer.size(), 6u);
  EXPECT_EQ(buffer.stats().evicted_capacity, 3u);
  data::Dataset meta;
  meta.schema.fields = {{"ctx", 2, false, false}};
  const data::Dataset snap = buffer.snapshot(meta);
  std::vector<std::int64_t> kept;
  for (const auto& user : snap.users) {
    for (const auto& s : user.sessions) kept.push_back(s.timestamp);
  }
  std::sort(kept.begin(), kept.end());
  EXPECT_EQ(kept, (std::vector<std::int64_t>{103, 104, 105, 106, 107, 108}));
}

TEST(SessionReplayBuffer, ArrivalFifoStaysBoundedUnderPerUserEvictions) {
  // Per-user-cap evictions never pop the arrival FIFO directly; the
  // compaction pass must keep it bounded anyway (regression: a few heavy
  // users used to grow it one entry per observed session, forever).
  ReplayBufferConfig config;
  config.capacity = 16;
  config.per_user_cap = 2;
  SessionReplayBuffer buffer(config);
  for (int i = 0; i < 5000; ++i) {
    buffer.add(static_cast<std::uint64_t>(i % 3), 100 + i, ctx(0), false);
  }
  EXPECT_EQ(buffer.size(), 6u);  // 3 users x cap 2
  EXPECT_EQ(buffer.stats().observed, 5000u);
  // Bound: max(64, 2 * capacity) + the adds since the last compaction.
  EXPECT_LE(buffer.arrival_entries(), 66u);
  // Retention is still the most recent sessions per user.
  data::Dataset meta;
  meta.schema.fields = {{"ctx", 2, false, false}};
  const data::Dataset snap = buffer.snapshot(meta);
  for (const auto& user : snap.users) {
    ASSERT_EQ(user.sessions.size(), 2u);
    EXPECT_GE(user.sessions.front().timestamp, 100 + 5000 - 6);
  }
}

TEST(SessionReplayBuffer, SnapshotUntilExcludesHoldout) {
  SessionReplayBuffer buffer({.capacity = 100, .per_user_cap = 100});
  for (int i = 0; i < 10; ++i) buffer.add(1, 100 + i, ctx(0), i % 2 == 0);
  data::Dataset meta;
  meta.schema.fields = {{"ctx", 2, false, false}};
  EXPECT_EQ(buffer.snapshot(meta, 105).total_sessions(), 5u);
  EXPECT_EQ(buffer.snapshot(meta).total_sessions(), 10u);
  EXPECT_EQ(buffer.latest_time(), 109);
}

// ------------------------------------------------------------ model registry

TEST(ModelRegistry, PublishSwapsAtomicallyAndRollbackRestores) {
  const data::Dataset meta = drift_cohort(2, 1, 1000, 1);
  auto config = small_rnn_config();
  auto model_a = std::make_shared<models::RnnModel>(meta, config);
  config.seed = 999;  // different weights, same geometry
  auto model_b = std::make_shared<models::RnnModel>(meta, config);

  ModelRegistry registry(model_a);
  EXPECT_EQ(registry.current_version(), 1u);
  const auto v1 = registry.current();
  EXPECT_EQ(v1->model.get(), model_a.get());

  EXPECT_EQ(registry.publish(model_b), 2u);
  EXPECT_EQ(registry.current()->model.get(), model_b.get());
  // v1 snapshot held by a reader stays valid after the swap.
  EXPECT_EQ(v1->model.get(), model_a.get());

  EXPECT_TRUE(registry.rollback());
  EXPECT_EQ(registry.current()->model.get(), model_a.get());
  EXPECT_EQ(registry.current_version(), 1u);
  EXPECT_FALSE(registry.rollback());  // at the oldest retained version
  EXPECT_EQ(registry.stats().publishes, 1u);
  EXPECT_EQ(registry.stats().rollbacks, 1u);
}

TEST(ModelRegistry, PublishRejectsGeometryMismatch) {
  const data::Dataset meta = drift_cohort(2, 1, 1000, 1);
  auto config = small_rnn_config();
  ModelRegistry registry(std::make_shared<models::RnnModel>(meta, config));
  config.hidden_size = 16;  // stored states would become unreadable
  EXPECT_THROW(
      registry.publish(std::make_shared<models::RnnModel>(meta, config)),
      std::invalid_argument);
}

TEST(ModelRegistry, RebuildsQuantizedReplicasBeforePublish) {
  const data::Dataset meta = drift_cohort(2, 1, 1000, 1);
  auto config = small_rnn_config();
  auto model_a = std::make_shared<models::RnnModel>(meta, config);
  model_a->enable_quantized_serving();
  ModelRegistry registry(model_a);  // replica policy inferred from seed
  EXPECT_TRUE(registry.quantize_replicas());

  config.seed = 31337;
  auto model_b = std::make_shared<models::RnnModel>(meta, config);
  EXPECT_FALSE(model_b->quantized_serving());
  registry.publish(model_b);
  // The published version came out quantized — a kInt8 reader can never
  // observe a version whose replicas lag its weights.
  EXPECT_TRUE(registry.current()->model->quantized_serving());
}

// ------------------------------------------------------- optimizer round-trip

TEST(AdamState, SerializeRoundTripResumesBitIdentically) {
  Rng rng(5);
  const Matrix w0 = Matrix::randn(3, 4, rng, 0.0f, 1.0f);
  const Matrix b0 = Matrix::randn(1, 4, rng, 0.0f, 1.0f);
  // Deterministic fake gradient stream.
  auto grad_at = [](std::size_t step, std::size_t rows, std::size_t cols) {
    Rng grng(100 + step);
    return Matrix::randn(rows, cols, grng, 0.0f, 0.5f);
  };

  autograd::Variable wa(w0, true), ba(b0, true);
  nn::Adam opt_a({wa, ba}, {.learning_rate = 1e-2});
  BinaryWriter saved_state;
  Matrix w_mid, b_mid;
  for (std::size_t step = 0; step < 6; ++step) {
    if (step == 3) {
      opt_a.serialize(saved_state);
      w_mid = wa.value();
      b_mid = ba.value();
    }
    wa.mutable_grad() = grad_at(step, 3, 4);
    ba.mutable_grad() = grad_at(step, 1, 4);
    opt_a.step();
  }

  // Resume from the snapshot and replay the same tail of gradients.
  autograd::Variable wb(w_mid, true), bb(b_mid, true);
  nn::Adam opt_b({wb, bb}, {.learning_rate = 1e-2});
  BinaryReader reader(saved_state.take());
  opt_b.deserialize(reader);
  EXPECT_EQ(opt_b.step_count(), 3u);
  for (std::size_t step = 3; step < 6; ++step) {
    wb.mutable_grad() = grad_at(step, 3, 4);
    bb.mutable_grad() = grad_at(step, 1, 4);
    opt_b.step();
  }
  ASSERT_EQ(opt_b.step_count(), opt_a.step_count());
  for (std::size_t i = 0; i < wa.value().size(); ++i) {
    EXPECT_EQ(wa.value()[i], wb.value()[i]) << "w[" << i << "]";
  }
  for (std::size_t i = 0; i < ba.value().size(); ++i) {
    EXPECT_EQ(ba.value()[i], bb.value()[i]) << "b[" << i << "]";
  }
}

TEST(AdamState, DeserializeRejectsLayoutMismatch) {
  Rng rng(6);
  autograd::Variable w(Matrix::randn(2, 2, rng, 0.0f, 1.0f), true);
  nn::Adam opt({w});
  BinaryWriter writer;
  opt.serialize(writer);

  autograd::Variable w2(Matrix::randn(3, 2, rng, 0.0f, 1.0f), true);
  nn::Adam other({w2});
  BinaryReader reader(writer.take());
  EXPECT_THROW(other.deserialize(reader), std::runtime_error);
}

TEST(OnlineLearner, SaveLoadStatePreservesShadowAndOptimizer) {
  const data::Dataset cohort = drift_cohort(8, 3, 1000, 1);
  ModelRegistry registry(trained_drift_model());
  OnlineLearnerConfig config;
  config.min_train_sessions = 10;
  config.min_holdout_predictions = 5;
  OnlineLearner learner(registry, cohort, config);
  // Feed the buffer directly (the capture path is exercised elsewhere).
  for (const auto& user : cohort.users) {
    for (const auto& s : user.sessions) {
      JoinedSession joined;
      joined.user_id = user.user_id;
      joined.session_start = s.timestamp;
      joined.context = s.context;
      joined.access = s.access != 0;
      learner.observe(joined);
    }
  }
  learner.run_update_round();

  BinaryWriter writer;
  learner.save_state(writer);

  OnlineLearner restored(registry, cohort, config);
  BinaryReader reader(writer.take());
  restored.load_state(reader);
  // Restored shadow weights and Adam step count match the saved learner.
  BinaryWriter a, b;
  learner.save_state(a);
  restored.save_state(b);
  EXPECT_EQ(a.bytes(), b.bytes());
}

// ------------------------------------------------------------ learner gating

TEST(OnlineLearner, GateRejectsWhenDeltaUnattainable) {
  const data::Dataset cohort = drift_cohort(12, 4, 1000, 1);
  ModelRegistry registry(trained_drift_model());
  OnlineLearnerConfig config;
  config.min_train_sessions = 50;
  config.min_holdout_predictions = 10;
  // candidate must beat current by 2 full PR-AUC points — impossible, so
  // the gate must reject every round and the version must never move.
  config.max_pr_auc_regression = -2.0;
  OnlineLearner learner(registry, cohort, config);
  feed_cohort(learner, cohort);

  const OnlineUpdateReport report = learner.run_update_round();
  EXPECT_TRUE(report.ran);
  EXPECT_FALSE(report.published);
  EXPECT_EQ(report.version, 1u);
  EXPECT_EQ(registry.current_version(), 1u);
  const OnlineLearnerStats stats = learner.stats();
  EXPECT_EQ(stats.rejects, 1u);
  EXPECT_EQ(stats.publishes, 0u);
  EXPECT_EQ(registry.stats().publishes, 0u);
}

TEST(OnlineLearner, PublishesThroughGateAndAccountsEveryRound) {
  const data::Dataset cohort = drift_cohort(12, 4, 1000, 1);
  ModelRegistry registry(trained_drift_model());
  OnlineLearnerConfig config;
  config.min_train_sessions = 50;
  config.min_holdout_predictions = 10;
  config.max_pr_auc_regression = 0.05;
  OnlineLearner learner(registry, cohort, config);

  // Round with an empty buffer: skipped, nothing trained or published.
  EXPECT_FALSE(learner.run_update_round().ran);
  EXPECT_EQ(learner.stats().skipped, 1u);

  feed_cohort(learner, cohort);
  const OnlineUpdateReport report = learner.run_update_round();
  EXPECT_TRUE(report.ran);
  EXPECT_TRUE(report.published);
  EXPECT_EQ(report.version, 2u);
  EXPECT_EQ(registry.current_version(), 2u);

  // Audit: every round is a publish, a reject, or a skip — there is no
  // fourth outcome and no publish outside run_update_round.
  const OnlineLearnerStats stats = learner.stats();
  EXPECT_EQ(stats.rounds, 2u);
  EXPECT_EQ(stats.publishes + stats.rejects + stats.skipped, stats.rounds);
  EXPECT_EQ(registry.stats().publishes, stats.publishes);
}

TEST(OnlineLearner, Int8GateScoresTheQuantizedPath) {
  const data::Dataset cohort = drift_cohort(12, 4, 1000, 1);
  auto model = trained_drift_model();
  model->enable_quantized_serving();
  ModelRegistry registry(model);
  OnlineLearnerConfig config;
  config.min_train_sessions = 50;
  config.min_holdout_predictions = 10;
  config.gate_int8 = true;
  OnlineLearner learner(registry, cohort, config);
  feed_cohort(learner, cohort);
  const OnlineUpdateReport report = learner.run_update_round();
  EXPECT_TRUE(report.ran);
  EXPECT_GT(report.holdout_predictions, 0u);
  if (report.published) {
    // Whatever the gate decided, a published version must be servable at
    // int8 immediately.
    EXPECT_TRUE(registry.current()->model->quantized_serving());
  }

  // gate_int8 without a replica-rebuilding registry is a construction
  // error, not a latent serving crash.
  ModelRegistry f32_registry(trained_drift_model());
  EXPECT_THROW(OnlineLearner(f32_registry, cohort, config),
               std::invalid_argument);
}

// ------------------------------------------------- hot-swap serving parity

TEST(RnnPolicyRegistry, PinsSnapshotUntilNextBeginBatch) {
  const data::Dataset meta = drift_cohort(4, 2, 1000, 1);
  auto config = small_rnn_config();
  auto model_a = std::make_shared<models::RnnModel>(meta, config);
  ModelRegistry registry(model_a);

  serving::LocalKvStore kv;
  serving::HiddenStateStore store(kv);
  serving::RnnPolicy policy(registry, store);

  std::vector<SessionStart> batch;
  for (std::uint64_t u = 0; u < 6; ++u) {
    SessionStart s;
    s.session_id = u + 1;
    s.user_id = u;
    s.t = 1000;
    s.context = ctx(static_cast<std::uint32_t>(u % 2));
    batch.push_back(s);
  }
  pin_batch(policy);
  EXPECT_EQ(pinned_version(policy), 1u);
  const std::vector<double> before = policy.score_sessions(batch);

  config.seed = 4242;
  registry.publish(std::make_shared<models::RnnModel>(meta, config));
  // No begin_batch yet: the pinned version must keep scoring — a publish
  // can never change weights inside a snapshot group.
  const std::vector<double> pinned = policy.score_sessions(batch);
  EXPECT_EQ(before, pinned);
  EXPECT_EQ(pinned_version(policy), 1u);

  pin_batch(policy);
  EXPECT_EQ(pinned_version(policy), 2u);
  const std::vector<double> after = policy.score_sessions(batch);
  EXPECT_NE(before, after);  // different weights, same inputs
}

TEST(ModelHotSwap, ThreadedShardedReplayAcrossPublishMatchesSequential) {
  data::MobileTabConfig data_config;
  data_config.num_users = 30;
  data_config.days = 3;
  const data::Dataset dataset = data::generate_mobile_tab(data_config);
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 12;
  rnn_config.mlp_hidden = 12;
  const models::RnnModel model(dataset, rnn_config);

  // Both replicas start from identical weights; every publish installs a
  // clone of the same candidate, so the two registries follow the same
  // swap schedule with bit-identical versions.
  rnn_config.seed = 777;
  const models::RnnModel candidate(dataset, rnn_config);
  ModelRegistry registry_seq(
      std::shared_ptr<models::RnnModel>(model.clone()));
  ModelRegistry registry_par(
      std::shared_ptr<models::RnnModel>(model.clone()));

  serving::LocalKvStore kv_seq;
  serving::ShardedKvStore kv_par(8);
  serving::HiddenStateStore store_seq(kv_seq), store_par(kv_par);
  serving::RnnPolicy policy_seq(registry_seq, store_seq);
  serving::RnnPolicy policy_par(registry_par, store_par);
  serving::PrecomputeService service_seq(policy_seq, 0.5, 100, 10, 0);
  serving::PrecomputeService service_par(policy_par, 0.5, 100, 10, 0);
  ThreadPool pool(4);

  std::uint64_t sid = 1;
  std::int64_t base = 1000;
  for (int round = 0; round < 6; ++round) {
    // Hot-swap mid-stream: both registries publish the same weights
    // between rounds 2 and 3 (the swap schedule the parity is conditioned
    // on).
    if (round == 3) {
      registry_seq.publish(
          std::shared_ptr<models::RnnModel>(candidate.clone()));
      registry_par.publish(
          std::shared_ptr<models::RnnModel>(candidate.clone()));
    }
    std::vector<SessionStart> batch;
    for (std::uint64_t u = 0; u < 24; ++u) {
      SessionStart s;
      s.session_id = sid++;
      s.user_id = (u * 7 + static_cast<std::uint64_t>(round)) % 18;
      s.t = base + static_cast<std::int64_t>((u * 53) % 300);
      s.context = ctx(static_cast<std::uint32_t>(u % 5));
      batch.push_back(s);
    }
    std::swap(batch[0], batch[17]);
    std::swap(batch[3], batch[11]);

    const std::vector<bool> par_decisions =
        service_par.on_session_starts(batch, &pool);
    std::vector<bool> seq_decisions(batch.size());
    for (const std::size_t i : serving::time_order(batch)) {
      seq_decisions[i] = service_seq.on_session_start(
          batch[i].session_id, batch[i].user_id, batch[i].t,
          batch[i].context);
    }
    EXPECT_EQ(par_decisions, seq_decisions) << "round " << round;

    for (std::size_t i = 0; i < batch.size(); i += 2) {
      service_par.on_access(batch[i].session_id, batch[i].t + 50);
      service_seq.on_access(batch[i].session_id, batch[i].t + 50);
    }
    base += 500;
  }
  service_par.flush();
  service_seq.flush();

  // Both policies really observed the swap...
  EXPECT_EQ(pinned_version(policy_seq), 2u);
  EXPECT_EQ(pinned_version(policy_par), 2u);
  // ...and the threaded + sharded replay across it is bit-identical to
  // the sequential replay: decisions (above), cost ledger, joiner stats,
  // online metrics.
  serving::expect_equal_ledgers(policy_par.cost_summary(),
                                policy_seq.cost_summary());
  serving::expect_equal_joiners(service_par.joiner_stats(),
                                service_seq.joiner_stats());
  EXPECT_EQ(service_par.metrics().predictions(),
            service_seq.metrics().predictions());
  EXPECT_EQ(service_par.metrics().prefetches(),
            service_seq.metrics().prefetches());
  EXPECT_EQ(service_par.metrics().successful_prefetches(),
            service_seq.metrics().successful_prefetches());
  EXPECT_GT(service_par.joiner_stats().joined, 0u);
}

TEST(ModelHotSwap, ConcurrentPublisherNeverCrashesServing) {
  data::MobileTabConfig data_config;
  data_config.num_users = 16;
  data_config.days = 2;
  const data::Dataset dataset = data::generate_mobile_tab(data_config);
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 8;
  rnn_config.mlp_hidden = 8;
  const models::RnnModel model(dataset, rnn_config);
  ModelRegistry registry(std::shared_ptr<models::RnnModel>(model.clone()));

  serving::ShardedKvStore kv(4);
  serving::HiddenStateStore store(kv);
  serving::RnnPolicy policy(registry, store);
  serving::PrecomputeService service(policy, 0.5, 100, 10, 0);
  ThreadPool pool(3);

  // A publisher hammers hot-swaps while the service replays threaded
  // batches. Scores are version-dependent (no determinism asserted); the
  // invariants are: no crash, every session scored, versions only move
  // forward at group boundaries.
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    std::uint64_t seed = 1;
    while (!stop.load()) {
      models::RnnModelConfig publish_config = rnn_config;
      publish_config.seed = 1000 + seed++;
      registry.publish(
          std::make_shared<models::RnnModel>(dataset, publish_config));
    }
  });

  std::uint64_t sid = 1;
  std::int64_t base = 1000;
  std::size_t scored = 0;
  std::size_t rounds = 0;
  // At least 20 rounds; keep replaying (bounded) until the publisher has
  // really raced at least a few swaps into the stream, so the test cannot
  // quietly degenerate to a no-swap replay on a loaded single-core runner.
  for (; rounds < 20 || (registry.stats().publishes < 3 && rounds < 2000);
       ++rounds) {
    std::vector<SessionStart> batch;
    for (std::uint64_t u = 0; u < 12; ++u) {
      SessionStart s;
      s.session_id = sid++;
      s.user_id = u % 9;
      s.t = base + static_cast<std::int64_t>((u * 37) % 200);
      s.context = ctx(static_cast<std::uint32_t>(u % 3));
      batch.push_back(s);
    }
    scored += service.on_session_starts(batch, &pool).size();
    base += 400;
  }
  stop.store(true);
  publisher.join();
  service.flush();
  EXPECT_EQ(scored, rounds * 12);
  EXPECT_EQ(service.metrics().predictions(), rounds * 12);
  EXPECT_GE(registry.stats().publishes, 3u);
  EXPECT_GE(pinned_version(policy), 1u);
}

TEST(OnlineExperiment, Int8GateConfigurationIsServable) {
  // Regression: the experiment used to seed its registry with the
  // replica-inferring ctor, so gate_int8 always threw (clone() never
  // carries replicas). The arm must come up and run gated rounds.
  const data::Dataset cohort = drift_cohort(12, 5, 1000, 500);
  const data::Dataset pretrain = drift_cohort(12, 3, 1000, 1);
  auto rnn_config = small_rnn_config();
  rnn_config.epochs = 4;
  models::RnnModel rnn(pretrain, rnn_config);
  rnn.fit(pretrain, all_users(pretrain));

  features::FeaturePipeline pipeline(cohort.schema, {},
                                     features::gbdt_encoding());
  const auto examples = features::build_session_examples(
      pretrain, all_users(pretrain), pipeline, 0, 0, 1);
  models::GbdtModel gbdt;
  models::GbdtModelConfig gbdt_config;
  gbdt_config.booster.num_rounds = 3;
  gbdt_config.depth_search = false;
  gbdt.fit(examples, examples, gbdt_config);

  serving::OnlineExperimentConfig config;
  config.online_rnn_arm = true;
  config.learner.gate_int8 = true;
  config.learner.min_train_sessions = 50;
  config.learner.min_holdout_predictions = 10;
  const serving::OnlineExperimentResult result =
      serving::run_online_experiment(cohort, all_users(cohort), rnn, gbdt,
                                     pipeline, config);
  EXPECT_GT(result.learner.rounds, 0u);
  EXPECT_EQ(result.learner.publishes, result.registry.publishes);
  EXPECT_FALSE(result.rnn_online.daily_pr_auc.empty());
}

// ------------------------------------------------- end-to-end drift cohort

TEST(OnlineExperiment, OnlineArmRecoversFromDriftFrozenArmDoesNot) {
  // Cohort: 12 days, rule flip at day 5. The frozen model is trained on
  // pre-flip users only, so its post-flip scores are anti-correlated; the
  // online arm starts from the same weights but folds its own joiner feed
  // back in daily through the gated registry.
  const int days = 12, flip_day = 5;
  const data::Dataset cohort = drift_cohort(16, days, flip_day, 1000);
  const data::Dataset pretrain = drift_cohort(16, 4, 1000, 1);

  auto rnn_config = small_rnn_config();
  models::RnnModel rnn(pretrain, rnn_config);
  rnn.fit(pretrain, all_users(pretrain));

  // Tiny GBDT arm (required by the harness; not under test here).
  features::FeaturePipeline pipeline(cohort.schema, {},
                                     features::gbdt_encoding());
  const auto examples = features::build_session_examples(
      pretrain, all_users(pretrain), pipeline, 0, 0, 1);
  models::GbdtModel gbdt;
  models::GbdtModelConfig gbdt_config;
  gbdt_config.booster.num_rounds = 5;
  gbdt_config.depth_search = false;
  gbdt.fit(examples, examples, gbdt_config);

  serving::OnlineExperimentConfig config;
  config.online_rnn_arm = true;
  config.online_update_period = 86400;
  // The production shape: every update round executes on the
  // OnlineUpdateDaemon's background thread, never on the replay (serving)
  // thread — asserted below via the round-origin ledgers.
  config.use_update_daemon = true;
  config.learner.min_train_sessions = 100;
  config.learner.min_holdout_predictions = 20;
  // Recency-weighted incremental rounds: loss restricted to the last day
  // before the holdout, enough minibatch steps per round to actually move
  // the shadow (tiny cohort → tiny minibatches).
  config.learner.epochs_per_round = 4;
  config.learner.minibatch_users = 4;
  config.learner.learning_rate = 5e-3;
  config.learner.loss_window = 86400;
  config.learner.max_pr_auc_regression = 0.05;
  const serving::OnlineExperimentResult result =
      serving::run_online_experiment(cohort, all_users(cohort), rnn, gbdt,
                                     pipeline, config);

  ASSERT_EQ(result.rnn.daily_pr_auc.size(),
            result.rnn_online.daily_pr_auc.size());
  ASSERT_GE(result.rnn.daily_pr_auc.size(), static_cast<std::size_t>(days));

  // Round origin: every learner round was driven by the daemon (zero
  // caller-thread rounds), and the daemon's outcome ledger matches the
  // learner's.
  EXPECT_GT(result.daemon.rounds_driven, 0u);
  EXPECT_EQ(result.daemon.rounds_driven, result.learner.rounds);
  EXPECT_EQ(result.daemon.publishes, result.learner.publishes);

  // Zero publishes bypassed the gate: the learner's ledger and the
  // registry's agree, and every round is accounted for.
  EXPECT_EQ(result.learner.publishes, result.registry.publishes);
  EXPECT_EQ(result.learner.publishes + result.learner.rejects +
                result.learner.skipped,
            result.learner.rounds);
  EXPECT_GE(result.learner.publishes, 1u);
  // Version numbers are monotone (a publish after a rollback skips, so
  // this arithmetic only holds with zero rollbacks — asserted first).
  EXPECT_EQ(result.learner.rollbacks, 0u);
  EXPECT_EQ(result.online_versions, 1u + result.registry.publishes);

  // Late-day prequential PR-AUC: after the learner has had a few
  // post-flip rounds (flip + 4), the online arm must sit at or above the
  // frozen arm — and decisively so, since the frozen arm stays
  // anti-correlated while the online arm relearns the inverted rule.
  double frozen_late = 0, online_late = 0;
  const std::size_t from = static_cast<std::size_t>(flip_day) + 4;
  std::size_t late_days = 0;
  for (std::size_t d = from; d < static_cast<std::size_t>(days); ++d) {
    frozen_late += result.rnn.daily_pr_auc[d];
    online_late += result.rnn_online.daily_pr_auc[d];
    ++late_days;
  }
  ASSERT_GT(late_days, 0u);
  frozen_late /= static_cast<double>(late_days);
  online_late /= static_cast<double>(late_days);
  EXPECT_GE(online_late, frozen_late);
  EXPECT_GT(online_late, frozen_late + 0.3)
      << "online arm failed to adapt: frozen=" << frozen_late
      << " online=" << online_late;
  // Pre-flip, both arms served (near-)identical weights.
  EXPECT_NEAR(result.rnn.daily_pr_auc[2], result.rnn_online.daily_pr_auc[2],
              0.25);
}

}  // namespace
}  // namespace pp::online
