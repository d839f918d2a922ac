// The slow serving stress tier (ctest label `stress`): multi-round
// threaded + sharded replays asserting bit-identical parity with the
// sequential path, and the pool-worker-driver deadlock regression. Split
// out of serving_test so ci/check.sh can fail fast on the cheap tiers
// before paying for these.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <set>
#include <thread>

#include "data/generators.hpp"
#include "serving/precompute_service.hpp"
#include "serving_test_util.hpp"
#include "util/thread_pool.hpp"

namespace pp::serving {
namespace {

/// Delegating policy that records which threads ran score_sessions, so
/// the stress test can assert the pool actually fanned out (and was not
/// quietly routed through the sequential fallback).
class ThreadObservingPolicy final : public PrecomputePolicy {
 public:
  explicit ThreadObservingPolicy(RnnPolicy& inner) : inner_(&inner) {}

  double score_session(std::uint64_t user_id, std::int64_t t,
                       std::span<const std::uint32_t> context) override {
    return inner_->score_session(user_id, t, context);
  }
  std::vector<double> score_sessions(
      std::span<const SessionStart> sessions) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      scoring_threads_.insert(std::this_thread::get_id());
    }
    // Hold the partition open briefly: with caller-drains fan-out, the
    // calling thread may otherwise claim every partition before a pool
    // worker even wakes up (this is a 1-core CI reality, not a bug), and
    // the fan-out observation below would be pure luck. Timing only —
    // scores are unaffected.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return inner_->score_sessions(sessions);
  }
  void on_session_complete(const JoinedSession& joined) override {
    inner_->on_session_complete(joined);
  }
  bool concurrent_safe() const override { return true; }
  ServingCostSummary cost_summary() const override {
    return inner_->cost_summary();
  }
  const char* name() const override { return inner_->name(); }

  std::size_t scoring_thread_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return scoring_threads_.size();
  }

 private:
  RnnPolicy* inner_;
  mutable std::mutex mutex_;
  std::set<std::thread::id> scoring_threads_;
};

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
  ThreadObservingPolicy observed_par(policy_par);
  PrecomputeService service_seq(policy_seq, 0.5, 100, 10, 0);
  PrecomputeService service_par(observed_par, 0.5, 100, 10, 0);
  ThreadPool pool(4);

  std::uint64_t sid = 1;
  std::int64_t base = 1000;
  // At least 6 rounds; keep replaying (bounded) until scoring has been
  // observed on a second thread, so the fan-out assertion cannot flake on
  // a loaded single-core runner. Parity must hold at any round count.
  for (int round = 0;
       round < 6 || (observed_par.scoring_thread_count() < 2 && round < 100);
       ++round) {
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

    const std::vector<bool> par_decisions =
        service_par.on_session_starts(batch, &pool);

    std::vector<bool> seq_decisions(batch.size());
    for (const std::size_t i : time_order(batch)) {
      seq_decisions[i] = service_seq.on_session_start(
          batch[i].session_id, batch[i].user_id, batch[i].t,
          batch[i].context);
    }
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
  // Multi-threaded sharded serving is bit-identical to the sequential
  // replay: same decisions (above), same cost ledger, same joiner stats,
  // same online metrics.
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
  // The parallel path genuinely fanned out: scoring ran on more than one
  // pool worker (not the sequential fallback).
  EXPECT_GE(observed_par.scoring_thread_count(), 2u);
  // The sharded store actually spread the users across shards.
  std::size_t shards_used = 0;
  for (std::size_t s = 0; s < kv_par.num_shards(); ++s) {
    shards_used += kv_par.shard_stats(s).writes > 0 ? 1 : 0;
  }
  EXPECT_GE(shards_used, 2u);
}

TEST(PrecomputeService, SessionStartsFromPoolWorkerDoesNotDeadlock) {
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
  ThreadPool pool(2);

  // Two batch drivers enqueued into the same pool the service fans out
  // on: one worker holds the service mutex, the other blocks on it, so a
  // driver that submitted its partitions instead of running them inline
  // would wait on tasks no free worker can ever take.
  auto make_batch = [](std::uint64_t base_sid) {
    std::vector<SessionStart> batch;
    for (std::uint64_t u = 0; u < 6; ++u) {
      SessionStart s;
      s.session_id = base_sid + u;
      s.user_id = u;
      s.t = 5000;
      s.context = {static_cast<std::uint32_t>(u % 3), 0, 0, 0};
      batch.push_back(s);
    }
    return batch;
  };
  std::vector<std::future<void>> drivers;
  std::atomic<std::size_t> scored{0};
  for (std::uint64_t d = 0; d < 2; ++d) {
    drivers.push_back(pool.submit([&service, &pool, &scored, make_batch, d] {
      const auto batch = make_batch(100 * (d + 1));
      scored += service.on_session_starts(batch, &pool).size();
    }));
  }
  // The main thread drives a batch at the same time: it may win the
  // service mutex while both workers sit blocked on it, so its fan-out
  // helpers can never be scheduled — the caller-drains design must still
  // complete the group on the calling thread.
  scored += service.on_session_starts(make_batch(300), &pool).size();
  for (auto& f : drivers) f.get();  // hangs forever without caller-runs
  EXPECT_EQ(scored.load(), 18u);
  EXPECT_EQ(service.metrics().predictions(), 0u);  // recorded at join
  service.flush();
  EXPECT_EQ(service.metrics().predictions(), 18u);
}

}  // namespace
}  // namespace pp::serving
