// Serving-pipeline walkthrough (§9 + §10): the production wiring — hidden
// states in a Redis-like KV store, session events joined by a Kafka-like
// stream processor, the MLP half of the model at session start and the GRU
// half at session end — with the cost instrumentation that underlies the
// paper's 10x serving-cost claim, and the multi-tenant continual-learning
// tier: per-cohort model registries updated by a background daemon whose
// learner state checkpoints to disk and resumes bit-identically.
//
// Every serving stack here is ONE registration call: a TenantSpec names
// the cohort id, model, KV backend, codec, thresholds, and learner/daemon
// config, and CohortRegistryMap::register_tenant() returns the fully wired
// ServingStack. The final section pushes events through the streaming
// ingest bus (wire codec → bounded lanes → watermark-merging consumer)
// instead of calling the service directly.
//
// The example checks itself: it exits non-zero when checkpoint resume
// diverges or the ingest joiner leaves a context unjoined, so ctest runs
// it as a `serving` tier test.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>

#include "data/generators.hpp"
#include "ingest/consumer.hpp"
#include "ingest/load_gen.hpp"
#include "models/rnn_model.hpp"
#include "online/tenant.hpp"
#include "serving/precompute_service.hpp"

int main() {
  using namespace pp;

  data::MobileTabConfig config;
  config.num_users = 400;
  config.days = 10;
  const data::Dataset dataset = data::generate_mobile_tab(config);

  // A small trained model (in production you would load weights).
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 32;
  rnn_config.mlp_hidden = 32;
  rnn_config.epochs = 2;
  rnn_config.truncate_history = 150;
  models::RnnModel model(dataset, rnn_config);
  std::vector<std::size_t> train_users(300);
  std::iota(train_users.begin(), train_users.end(), 0);
  model.fit(dataset, train_users);

  // One map hosts every tenant in this process.
  online::CohortRegistryMap tenants;

  // The serving stack — KV store + hidden-state codec + policy + joiner —
  // is one registration call. capture=false: a frozen tenant that serves
  // version 1 and feeds nothing back.
  online::TenantSpec walkthrough;
  walkthrough.id = "walkthrough";
  walkthrough.model = std::shared_ptr<models::RnnModel>(model.clone());
  walkthrough.dataset_meta = &dataset;
  walkthrough.backend = storage::KvBackendSpec::local();
  walkthrough.threshold = 0.3;
  walkthrough.grace = 60;
  walkthrough.capture = false;
  online::ServingStack& stack = tenants.register_tenant(walkthrough);
  serving::PrecomputeService& service = stack.service();
  std::printf("hidden state payload: %zu bytes per user (paper: 512 B at "
              "d=128)\n\n",
              stack.hidden_store().encoded_bytes(model.network()));

  // Replay one fresh user's sessions as live traffic.
  const auto& user = dataset.users[350];
  std::uint64_t session_id = 1;
  for (const auto& session : user.sessions) {
    const bool prefetch = service.on_session_start(
        session_id, user.user_id, session.timestamp, session.context);
    std::printf("session %3llu at t=%lld: %s\n",
                static_cast<unsigned long long>(session_id),
                static_cast<long long>(session.timestamp),
                prefetch ? "precompute triggered" : "skipped");
    if (session.access) {
      service.on_access(session_id, session.timestamp + 300);
    }
    ++session_id;
  }
  service.flush();  // fire all remaining session-window timers

  const auto& metrics = service.metrics();
  std::printf("\nonline ledger: %zu predictions, %zu prefetches "
              "(%zu useful), precision %.2f, recall %.2f\n",
              metrics.predictions(), metrics.prefetches(),
              metrics.successful_prefetches(), metrics.precision(),
              metrics.recall());

  const auto costs = stack.policy().cost_summary();
  std::printf("serving costs: %.1f KV lookups/prediction, %zu bytes "
              "stored, %zu MACs/prediction\n",
              costs.lookups_per_prediction(), costs.storage_bytes,
              static_cast<std::size_t>(costs.flops_per_prediction()));
  const auto& joiner = service.joiner_stats();
  std::printf("stream joiner: %zu contexts, %zu accesses, %zu joined\n",
              joiner.contexts, joiner.accesses, joiner.joined);

  // --- The batched tier: the same spec with a sharded backend, fed
  // session starts in batches on this thread (each batch is scored in
  // snapshot groups, one batched score call per group).
  online::TenantSpec sharded_spec;
  sharded_spec.id = "sharded";
  sharded_spec.model = std::shared_ptr<models::RnnModel>(model.clone());
  sharded_spec.dataset_meta = &dataset;
  sharded_spec.backend = storage::KvBackendSpec::sharded(8);
  sharded_spec.threshold = 0.3;
  sharded_spec.grace = 60;
  sharded_spec.capture = false;
  online::ServingStack& sharded_stack = tenants.register_tenant(sharded_spec);
  serving::PrecomputeService& sharded_service = sharded_stack.service();

  // Replay a cohort of fresh users in batches of 256 session starts; the
  // service time-sorts each batch internally and cuts it into snapshot
  // groups at timer boundaries.
  std::vector<serving::SessionStart> batch;
  std::size_t triggered = 0, scored = 0;
  for (std::size_t u = 360; u < 400; ++u) {
    const auto& cohort_user = dataset.users[u];
    for (const auto& s : cohort_user.sessions) {
      serving::SessionStart start;
      start.session_id = ++session_id;
      start.user_id = cohort_user.user_id;
      start.t = s.timestamp;
      start.context = s.context;
      batch.push_back(start);
      if (batch.size() == 256) {
        for (const bool d : sharded_service.on_session_starts(batch)) {
          triggered += d ? 1 : 0;
        }
        scored += batch.size();
        batch.clear();
      }
    }
  }
  if (!batch.empty()) {
    for (const bool d : sharded_service.on_session_starts(batch)) {
      triggered += d ? 1 : 0;
    }
    scored += batch.size();
  }
  sharded_service.flush();

  std::printf("\nsharded tier (8 shards, batches of 256): %zu sessions "
              "scored, %zu precomputes triggered\n",
              scored, triggered);
  const auto sharded_costs = sharded_stack.policy().cost_summary();
  std::printf("sharded costs: %.1f KV lookups/prediction, %zu live keys\n",
              sharded_costs.lookups_per_prediction(),
              sharded_costs.live_keys);

  // --- The multi-tenant continual-learning tier (§10): one process, N
  // surfaces. Each registration wires an isolated registry + learner +
  // replay buffer + serving stack whose joiner feed lands in its own
  // cohort's buffer; start_daemon=true brings up the background
  // OnlineUpdateDaemon before register_tenant returns.
  //
  // The pid keeps concurrent runs (ctest -j, sanitizer lanes) apart.
  const std::string checkpoint_path =
      (std::filesystem::temp_directory_path() /
       ("pp_tab_prefetch_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  std::filesystem::remove(checkpoint_path);

  online::TenantSpec tab_spec;
  tab_spec.id = "tab_prefetch";
  tab_spec.model = std::shared_ptr<models::RnnModel>(model.clone());
  tab_spec.dataset_meta = &dataset;
  tab_spec.threshold = 0.3;
  tab_spec.grace = 60;
  tab_spec.cohort.learner.min_train_sessions = 50;
  tab_spec.cohort.learner.min_holdout_predictions = 10;
  tab_spec.cohort.learner.holdout_window = 86400;
  // The bursty surface samples its replay buffer uniformly over the whole
  // stream (reservoir admission) instead of keeping only the recent tail.
  tab_spec.cohort.learner.buffer.admission =
      pp::online::AdmissionPolicy::kReservoir;
  tab_spec.cohort.learner.buffer.capacity = 20000;
  tab_spec.cohort.daemon.min_round_interval = std::chrono::milliseconds(100);
  tab_spec.cohort.daemon.min_new_sessions = 500;
  tab_spec.cohort.daemon.checkpoint_every_rounds = 1;
  tab_spec.cohort.daemon.checkpoint_path = checkpoint_path;
  tab_spec.start_daemon = true;
  online::ServingStack& tab_stack = tenants.register_tenant(tab_spec);

  online::TenantSpec notif_spec;  // second tenant: recency buffer
  notif_spec.id = "notif_preload";
  notif_spec.model = std::shared_ptr<models::RnnModel>(model.clone());
  notif_spec.dataset_meta = &dataset;
  notif_spec.threshold = 0.3;
  notif_spec.grace = 60;
  notif_spec.cohort.learner.min_train_sessions = 50;
  notif_spec.cohort.learner.min_holdout_predictions = 10;
  notif_spec.start_daemon = true;
  online::ServingStack& notif_stack = tenants.register_tenant(notif_spec);

  // Replay two disjoint user slices as the two surfaces' live traffic.
  for (std::size_t u = 0; u < 120; ++u) {
    const auto& traffic_user = dataset.users[u];
    serving::PrecomputeService& surface =
        u < 60 ? tab_stack.service() : notif_stack.service();
    for (const auto& s : traffic_user.sessions) {
      surface.on_session_start(++session_id, traffic_user.user_id,
                               s.timestamp, s.context);
      if (s.access) surface.on_access(session_id, s.timestamp + 300);
    }
  }
  tab_stack.service().flush();
  notif_stack.service().flush();

  // Force one gated round per cohort right now (still executed on each
  // daemon's thread — production would just let the triggers fire).
  for (const std::string& id : tenants.ids()) {
    if (id == "walkthrough" || id == "sharded") continue;  // frozen tenants
    auto& cohort = tenants.at(id);
    const auto report = cohort.daemon().drive_round();
    std::printf("\ncohort %-13s v%llu: buffered %zu sessions / %zu users, "
                "round %s (cand %.3f vs pub %.3f)\n",
                id.c_str(),
                static_cast<unsigned long long>(
                    cohort.registry().current_version()),
                cohort.buffer().size(), cohort.buffer().user_count(),
                report.published ? "published"
                                 : (report.ran ? "rejected" : "skipped"),
                report.candidate_pr_auc, report.published_pr_auc);
    const auto daemon_stats = cohort.daemon().stats();
    std::printf("  daemon: %zu rounds driven (all on the daemon thread), "
                "%zu checkpoints, learner rounds %zu\n",
                daemon_stats.rounds_driven, daemon_stats.checkpoints,
                cohort.learner().stats().rounds);
  }
  tab_stack.stop_daemon();
  notif_stack.stop_daemon();

  // Kill/resume: a fresh learner restored from the daemon's checkpoint
  // carries the exact shadow weights + Adam moments + step count.
  online::ModelRegistry resume_registry(
      std::shared_ptr<models::RnnModel>(model.clone()));
  online::OnlineLearner resumed(resume_registry, dataset,
                                tab_spec.cohort.learner);
  const bool resumed_ok = resumed.load_checkpoint(checkpoint_path);
  pp::BinaryWriter before, after;
  tab_stack.cohort().learner().save_state(before);
  resumed.save_state(after);
  const bool resume_identical = before.bytes() == after.bytes();
  std::printf("\ncheckpoint resume: %s, state bytes %s (%zu)\n",
              resumed_ok ? "loaded" : "no checkpoint",
              resume_identical ? "bit-identical" : "DIVERGED",
              after.bytes().size());
  std::filesystem::remove(checkpoint_path);

  // --- Push-based ingest (§9): producers frame events through the wire
  // codec onto bounded bus lanes; the consumer thread decodes, merges
  // lanes by watermark into (t, seq) order, and feeds a fresh tenant's
  // service in snapshot-group batches — decisions bit-identical to a
  // sequential replay of the same events.
  online::TenantSpec ingest_spec;
  ingest_spec.id = "ingest_demo";
  ingest_spec.model = std::shared_ptr<models::RnnModel>(model.clone());
  ingest_spec.dataset_meta = &dataset;
  ingest_spec.backend = storage::KvBackendSpec::sharded(8);
  ingest_spec.threshold = 0.3;
  ingest_spec.grace = 60;
  ingest_spec.capture = false;
  online::ServingStack& ingest_stack = tenants.register_tenant(ingest_spec);

  ingest::EventBusConfig bus_config;
  bus_config.num_lanes = 4;
  bus_config.lane_capacity = 256;
  ingest::EventBus bus(bus_config);

  ingest::LoadGenConfig load_config;
  load_config.num_users = 1 << 20;  // a million-user Zipf universe
  load_config.num_producers = 4;
  load_config.sessions_per_producer = 2000;
  load_config.session_length = dataset.session_length;
  load_config.start_time = dataset.start_time;
  ingest::LoadGenerator load(load_config);

  ingest::IngestConsumer consumer(bus, ingest_stack.service());
  consumer.start();
  const ingest::LoadGenStats produced = load.run(&bus);
  consumer.join();
  ingest_stack.service().flush();

  const ingest::ConsumerStats& consumed = consumer.stats();
  const auto bus_totals = bus.totals();
  std::printf("\ningest bus: %llu events from %zu producers at %.0f ev/s "
              "(%llu frames decoded, %llu batches, max lane depth %zu)\n",
              static_cast<unsigned long long>(produced.events),
              load_config.num_producers, produced.achieved_events_per_sec,
              static_cast<unsigned long long>(consumed.wire.frames_decoded),
              static_cast<unsigned long long>(consumed.batches),
              bus_totals.max_depth);
  const auto ingest_joiner = ingest_stack.service().joiner_stats();
  std::printf("ingest joiner: %zu contexts, %zu accesses, %zu joined, "
              "%zu clock rewinds\n",
              ingest_joiner.contexts, ingest_joiner.accesses,
              ingest_joiner.joined, ingest_joiner.clock_rewinds);

  int failures = 0;
  if (!resume_identical) {
    std::fprintf(stderr, "FAIL: checkpoint resume diverged\n");
    ++failures;
  }
  if (ingest_joiner.joined != ingest_joiner.contexts) {
    std::fprintf(stderr, "FAIL: ingest joined %zu of %zu contexts\n",
                 ingest_joiner.joined, ingest_joiner.contexts);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
