// Concurrent scrape of live components (ctest label `stress`, so the TSan
// lane runs it). A durable, journaled, capturing tenant with its update
// daemon running is fed through IngestConsumer while one thread snapshots
// the global MetricsRegistry in a loop and another constructs and destroys
// components; then the tenant is torn down while the scrape goes on.
// Checks: every snapshot carries every *Stats series of the tenant, the
// collected values are the owners' stats(), and teardown leaves every
// series where it was before registration.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ingest/consumer.hpp"
#include "ingest/event_bus.hpp"
#include "ingest/load_gen.hpp"
#include "obs/metrics.hpp"
#include "online/tenant.hpp"
#include "online_test_util.hpp"
#include "serving/kv_store.hpp"
#include "storage/durable_kv_store.hpp"
#include "util/thread_pool.hpp"

namespace pp {
namespace {

using Labels = obs::MetricsRegistry::Labels;
using Series = std::map<std::pair<std::string, Labels>, double>;

struct Expected {
  std::string name;
  Labels labels;
  double value = 0;
};

Series scrape() {
  Series out;
  for (const auto& m : obs::MetricsRegistry::global().snapshot()) {
    if (m.kind == obs::MetricKind::kGauge) out[{m.name, m.labels}] = m.value;
  }
  return out;
}

double value_of(const Series& series, const Expected& e) {
  const auto it = series.find({e.name, e.labels});
  return it == series.end() ? 0.0 : it->second;
}

/// Every series the tenant's and the bus's collectors emit, with the
/// value its owner's stats() reports now.
std::vector<Expected> owner_stats(online::ServingStack& stack,
                                  const ingest::EventBus& bus) {
  std::vector<Expected> out;
  auto add = [&out](const char* name, const Labels& labels, double value) {
    out.push_back({name, labels, value});
  };
  const serving::KvStats kv = stack.kv().stats();
  add("pp_kv_lookups", {}, kv.lookups);
  add("pp_kv_hits", {}, kv.hits);
  add("pp_kv_writes", {}, kv.writes);
  add("pp_kv_deletes", {}, kv.deletes);
  add("pp_kv_bytes_read", {}, kv.bytes_read);
  add("pp_kv_bytes_written", {}, kv.bytes_written);

  const auto& durable = dynamic_cast<storage::DurableKvStore&>(stack.kv());
  const storage::DurableKvStats d = durable.durable_stats();
  add("pp_durable_disk_bytes", {}, d.disk_bytes);
  add("pp_durable_live_record_bytes", {}, d.live_record_bytes);
  add("pp_durable_dead_bytes_sealed", {}, d.dead_bytes_sealed);
  add("pp_durable_dead_bytes_active", {}, d.dead_bytes_active);
  add("pp_durable_compactions", {}, d.compactions);
  add("pp_durable_compacted_bytes_reclaimed", {}, d.compacted_bytes_reclaimed);
  const storage::SegmentLogStats l = durable.log_stats();
  add("pp_storage_segments", {}, l.segments);
  add("pp_storage_appended_records", {}, l.appended_records);
  add("pp_storage_recovered_records", {}, l.recovered_records);
  add("pp_storage_torn_bytes_dropped", {}, l.torn_bytes_dropped);
  add("pp_storage_crc_rejects", {}, l.crc_rejects);
  add("pp_storage_rotations", {}, l.rotations);
  add("pp_storage_orphans_removed", {}, l.orphans_removed);
  add("pp_storage_memory_reads", {}, l.memory_reads);
  add("pp_storage_file_reads", {}, l.file_reads);
  add("pp_storage_active_copy_bytes", {}, l.active_copy_bytes);

  const storage::ReplayJournalStats j = stack.journal()->stats();
  add("pp_journal_appended", {}, j.appended);
  add("pp_journal_replayed", {}, j.replayed);
  add("pp_journal_decode_rejects", {}, j.decode_rejects);
  add("pp_journal_torn_bytes_dropped", {}, j.torn_bytes_dropped);
  add("pp_journal_crc_rejects", {}, j.crc_rejects);

  const Labels policy{{"policy", stack.policy().name()}};
  const serving::JoinerStats js = stack.service().joiner_stats();
  add("pp_joiner_contexts", policy, js.contexts);
  add("pp_joiner_accesses", policy, js.accesses);
  add("pp_joiner_joined", policy, js.joined);
  add("pp_joiner_duplicate_contexts", policy, js.duplicate_contexts);
  add("pp_joiner_duplicate_accesses", policy, js.duplicate_accesses);
  add("pp_joiner_orphan_accesses", policy, js.orphan_accesses);
  add("pp_joiner_orphan_drops", policy, js.orphan_drops);
  add("pp_joiner_late_accesses", policy, js.late_accesses);
  add("pp_joiner_clock_rewinds", policy, js.clock_rewinds);
  const serving::OnlineMetrics metrics = stack.service().metrics();
  add("pp_service_predictions", policy, metrics.predictions());
  add("pp_service_prefetches", policy, metrics.prefetches());
  add("pp_service_successful_prefetches", policy,
      metrics.successful_prefetches());
  add("pp_service_accesses", policy, metrics.accesses());
  const serving::ServingCostSummary cost = stack.policy().cost_summary();
  add("pp_cost_predictions", policy, cost.predictions);
  add("pp_cost_state_updates", policy, cost.state_updates);
  add("pp_cost_model_flops", policy, cost.model_flops);

  const Labels cohort{{"cohort", stack.id()}};
  const online::OnlineLearnerStats ls = stack.cohort().learner().stats();
  add("pp_online_observed_sessions", cohort, ls.observed_sessions);
  add("pp_online_rounds", cohort, ls.rounds);
  add("pp_online_skipped", cohort, ls.skipped);
  add("pp_online_publishes", cohort, ls.publishes);
  add("pp_online_rejects", cohort, ls.rejects);
  add("pp_online_rollbacks", cohort, ls.rollbacks);
  const online::ReplayBufferStats b = stack.cohort().buffer().stats();
  add("pp_replay_observed", cohort, b.observed);
  add("pp_replay_evicted_user_cap", cohort, b.evicted_user_cap);
  add("pp_replay_evicted_capacity", cohort, b.evicted_capacity);
  add("pp_replay_evicted_reservoir", cohort, b.evicted_reservoir);
  add("pp_replay_rejected_reservoir", cohort, b.rejected_reservoir);
  const online::OnlineUpdateDaemonStats ds = stack.cohort().daemon().stats();
  add("pp_daemon_wakeups", cohort, ds.wakeups);
  add("pp_daemon_rounds_driven", cohort, ds.rounds_driven);
  add("pp_daemon_rounds_ran", cohort, ds.rounds_ran);
  add("pp_daemon_round_errors", cohort, ds.round_errors);
  add("pp_daemon_publishes", cohort, ds.publishes);
  add("pp_daemon_rollbacks", cohort, ds.rollbacks);
  add("pp_daemon_deferred_interval", cohort, ds.deferred_interval);
  add("pp_daemon_deferred_sessions", cohort, ds.deferred_sessions);
  add("pp_daemon_checkpoints", cohort, ds.checkpoints);
  add("pp_daemon_checkpoint_failures", cohort, ds.checkpoint_failures);

  for (std::size_t lane = 0; lane < bus.num_lanes(); ++lane) {
    const Labels labels{{"lane", std::to_string(lane)}};
    const ingest::LaneStats s = bus.lane_stats(lane);
    add("pp_ingest_published", labels, s.published);
    add("pp_ingest_dropped", labels, s.dropped);
    add("pp_ingest_blocked", labels, s.blocked);
    add("pp_ingest_closed_rejects", labels, s.closed_rejects);
    add("pp_ingest_max_depth", labels, s.max_depth);
  }
  return out;
}

TEST(ObsStress, ScrapeDuringIngestAndTeardownSeesExactlyTheLiveStats) {
  using namespace std::chrono_literals;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pp_obs_stress_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const data::Dataset meta =
      online::testutil::drift_cohort(8, 2, /*flip_day=*/1000, 1);
  const Series before = scrape();

  auto tenants = std::make_unique<online::CohortRegistryMap>();
  online::TenantSpec spec;
  spec.id = "scraped";
  spec.model = online::testutil::trained_drift_model();
  spec.dataset_meta = &meta;
  spec.backend = storage::KvBackendSpec::durable_dir((dir / "kv").string());
  // Small segments: rotations and compactions happen under the scrape.
  spec.backend.durable.segment_bytes = 8 << 10;
  spec.backend.durable.compact_min_bytes = 4 << 10;
  spec.replay_journal_dir = (dir / "journal").string();
  // Rounds that train and gate, so scrapes overlap whole fits.
  spec.cohort.learner.holdout_window = 6 * 3600;
  spec.cohort.learner.min_train_sessions = 32;
  spec.cohort.learner.min_holdout_predictions = 8;
  spec.cohort.daemon.poll_interval = 2ms;
  spec.cohort.daemon.min_round_interval = 0ms;
  spec.cohort.daemon.min_new_sessions = 64;
  spec.start_daemon = true;
  online::ServingStack& stack = tenants->register_tenant(spec);

  ingest::LoadGenConfig lg;
  lg.num_users = 64;
  lg.num_producers = 2;
  lg.sessions_per_producer = 200;
  lg.zipf_theta = 0.9;
  lg.session_length = meta.session_length;
  lg.frames_per_chunk = 4;
  const ingest::LoadGenerator gen(lg);
  ingest::EventBusConfig bus_config;
  bus_config.num_lanes = lg.num_producers;
  bus_config.lane_capacity = 8;
  auto bus = std::make_unique<ingest::EventBus>(bus_config);
  ingest::ConsumerConfig consumer_config;
  consumer_config.batch_capacity = 16;
  auto consumer = std::make_unique<ingest::IngestConsumer>(
      *bus, stack.service(), consumer_config);
  std::vector<Expected> live = owner_stats(stack, *bus);
  live.push_back({"pp_ingest_queue_depth", {{"lane", "0"}}, 0});
  live.push_back({"pp_ingest_queue_depth", {{"lane", "1"}}, 0});

  // Phase 1: the tenant is alive and every snapshot must carry it. Phase
  // 2: the scraper acknowledges, then the tenant is torn down under it.
  std::atomic<int> phase{1};
  std::atomic<bool> acked{false};
  std::size_t checked = 0;
  std::string first_missing;
  std::thread scraper([&] {
    for (int p = phase.load(); p != 3; p = phase.load()) {
      const Series snap = scrape();
      if (p == 2) {
        acked.store(true);
        continue;
      }
      ++checked;
      for (const Expected& e : live) {
        if (first_missing.empty() && snap.count({e.name, e.labels}) == 0) {
          first_missing = e.name;
        }
      }
    }
  });
  std::atomic<bool> churning{true};
  std::thread churn([&] {
    while (churning.load()) {
      serving::LocalKvStore kv;
      ThreadPool churn_pool(1);
      ingest::EventBus churn_bus(ingest::EventBusConfig{});
      std::this_thread::sleep_for(1ms);
    }
  });

  consumer->start();
  const ingest::LoadGenStats produced = gen.run(bus.get());
  consumer->join();
  churning.store(false);
  churn.join();
  stack.stop_daemon();
  EXPECT_GT(produced.events, 0u);

  const Series after_join = scrape();
  for (const Expected& e : owner_stats(stack, *bus)) {
    EXPECT_EQ(value_of(after_join, e) - value_of(before, e), e.value)
        << e.name;
  }
  // The DurableKvStats fields copied from the store's log are exported
  // once, as the log's pp_storage_* series.
  for (const char* copy :
       {"pp_durable_segments", "pp_durable_recovered_records",
        "pp_durable_torn_bytes_dropped", "pp_durable_crc_rejects",
        "pp_durable_orphans_removed", "pp_durable_rotations"}) {
    EXPECT_EQ(after_join.count({copy, {}}), 0u) << copy;
  }

  phase.store(2);
  while (!acked.load()) std::this_thread::yield();
  consumer.reset();
  bus.reset();
  tenants.reset();
  phase.store(3);
  scraper.join();
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(first_missing, "");

  const Series after_teardown = scrape();
  for (const Expected& e : live) {
    EXPECT_EQ(value_of(after_teardown, e), value_of(before, e)) << e.name;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pp
