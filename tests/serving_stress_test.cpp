// The slow serving stress tier (ctest label `stress`, so the TSan lane runs
// it): a multi-round sharded replay, driven on its own caller thread,
// asserting bit-identical parity with the sequential path, and several
// threads driving one service at once. Split out of serving_test so
// ci/check.sh can fail fast on the cheap tiers before paying for these.
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "data/generators.hpp"
#include "serving/precompute_service.hpp"
#include "serving_test_util.hpp"

namespace pp::serving {
namespace {

TEST(PrecomputeService, ThreadedShardedReplayMatchesSequentialExactly) {
  data::MobileTabConfig config;
  config.num_users = 40;
  config.days = 4;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 12;
  rnn_config.mlp_hidden = 12;
  const models::RnnModel model(dataset, rnn_config);

  LocalKvStore kv_seq;
  ShardedKvStore kv_par(8);
  HiddenStateStore store_seq(kv_seq), store_par(kv_par);
  RnnPolicy policy_seq(model, store_seq);
  RnnPolicy policy_par(model, store_par);
  PrecomputeService service_seq(policy_seq, 0.5, 100, 10, 0);
  PrecomputeService service_par(policy_par, 0.5, 100, 10, 0);

  std::uint64_t sid = 1;
  std::int64_t base = 1000;
  for (int round = 0; round < 6; ++round) {
    // Mixed timestamps spanning several window lengths (so joins fire
    // mid-batch and cut scoring groups), duplicate users — including the
    // same user twice at the same instant — and shuffled order.
    std::vector<SessionStart> batch;
    for (std::uint64_t u = 0; u < 24; ++u) {
      SessionStart s;
      s.session_id = sid++;
      s.user_id = (u * 7 + static_cast<std::uint64_t>(round)) % 20;
      s.t = base + static_cast<std::int64_t>((u * 53) % 300);
      s.context = {static_cast<std::uint32_t>(u % 5), 0, 0, 0};
      batch.push_back(s);
    }
    batch[5].user_id = batch[2].user_id;  // same user, same instant
    batch[5].t = batch[2].t;
    batch[9].t = batch[4].t;  // different users, same instant
    std::swap(batch[0], batch[17]);
    std::swap(batch[3], batch[11]);

    // The batched replay runs on its own caller thread while this one
    // replays sequentially: services parallelize across their callers, and
    // the two share the model.
    std::vector<bool> par_decisions;
    std::thread par_caller(
        [&] { par_decisions = service_par.on_session_starts(batch); });
    std::vector<bool> seq_decisions(batch.size());
    for (const std::size_t i : time_order(batch)) {
      seq_decisions[i] = service_seq.on_session_start(
          batch[i].session_id, batch[i].user_id, batch[i].t,
          batch[i].context);
    }
    par_caller.join();
    EXPECT_EQ(par_decisions, seq_decisions) << "round " << round;

    // Half the sessions convert to accesses, fed to both services in the
    // same order.
    for (std::size_t i = 0; i < batch.size(); i += 2) {
      service_par.on_access(batch[i].session_id, batch[i].t + 50);
      service_seq.on_access(batch[i].session_id, batch[i].t + 50);
    }
    base += 500;
  }

  service_par.flush();
  service_seq.flush();
  // Batched sharded serving is bit-identical to the sequential replay:
  // same decisions (above), same cost ledger, same joiner stats, same
  // online metrics.
  expect_equal_ledgers(policy_par.cost_summary(), policy_seq.cost_summary());
  expect_equal_joiners(service_par.joiner_stats(),
                       service_seq.joiner_stats());
  EXPECT_EQ(service_par.metrics().predictions(),
            service_seq.metrics().predictions());
  EXPECT_EQ(service_par.metrics().prefetches(),
            service_seq.metrics().prefetches());
  EXPECT_EQ(service_par.metrics().successful_prefetches(),
            service_seq.metrics().successful_prefetches());
  EXPECT_EQ(service_par.metrics().accesses(),
            service_seq.metrics().accesses());
  EXPECT_GT(service_par.joiner_stats().joined, 0u);
  // The sharded store actually spread the users across shards.
  std::size_t shards_used = 0;
  for (std::size_t s = 0; s < kv_par.num_shards(); ++s) {
    shards_used += kv_par.shard_stats(s).writes > 0 ? 1 : 0;
  }
  EXPECT_GE(shards_used, 2u);
}

TEST(PrecomputeService, ConcurrentCallersOfOneServiceAddUp) {
  data::MobileTabConfig config;
  config.num_users = 8;
  config.days = 2;
  const data::Dataset dataset = data::generate_mobile_tab(config);
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 8;
  rnn_config.mlp_hidden = 8;
  const models::RnnModel model(dataset, rnn_config);

  ShardedKvStore kv(4);
  HiddenStateStore store(kv);
  RnnPolicy policy(model, store);
  PrecomputeService service(policy, 0.5, 1200, 60, 0);

  // Four callers drive the service at once, each with its own sessions
  // over one shared set of users, half of them accessed. The service runs
  // one call at a time, so nothing is lost: every session is scored, joined
  // and folded into its user's state exactly once.
  constexpr std::uint64_t kCallers = 4, kRounds = 12, kBatch = 6, kUsers = 5;
  std::vector<std::thread> callers;
  for (std::uint64_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        std::vector<SessionStart> batch;
        for (std::uint64_t b = 0; b < kBatch; ++b) {
          SessionStart s;
          s.session_id = 1 + (c * kRounds + r) * kBatch + b;
          s.user_id = (c + b) % kUsers;
          s.t = 5000 + static_cast<std::int64_t>(r * 2000 + b * 10);
          s.context = {static_cast<std::uint32_t>(b % 3), 0, 0, 0};
          batch.push_back(s);
        }
        EXPECT_EQ(service.on_session_starts(batch).size(), kBatch);
        for (std::size_t b = 0; b < batch.size(); b += 2) {
          service.on_access(batch[b].session_id, batch[b].t + 30);
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  service.flush();

  const std::size_t sessions = kCallers * kRounds * kBatch;
  const JoinerStats joiner = service.joiner_stats();
  EXPECT_EQ(joiner.contexts, sessions);
  EXPECT_EQ(joiner.joined, sessions);
  EXPECT_EQ(joiner.duplicate_contexts, 0u);
  EXPECT_EQ(service.metrics().predictions(), sessions);
  const ServingCostSummary cost = policy.cost_summary();
  EXPECT_EQ(cost.predictions, sessions);
  EXPECT_EQ(cost.state_updates, sessions);
  EXPECT_EQ(cost.live_keys, kUsers);
  // Each user's stored update count is its number of sessions.
  std::map<std::uint64_t, std::uint32_t> per_user;
  for (std::uint64_t c = 0; c < kCallers; ++c) {
    for (std::uint64_t b = 0; b < kBatch; ++b) {
      per_user[(c + b) % kUsers] += kRounds;
    }
  }
  for (const auto& [user, updates] : per_user) {
    const auto stored = store.get(user, model.network());
    ASSERT_TRUE(stored.has_value()) << "user " << user;
    EXPECT_EQ(stored->updates, updates) << "user " << user;
  }
}

}  // namespace
}  // namespace pp::serving
