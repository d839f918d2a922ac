#include "serving/online_experiment.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "online/tenant.hpp"
#include "storage/durable_io.hpp"

namespace pp::serving {

namespace {
PolicyOutcome collect(PrecomputeService& service) {
  service.flush();
  PolicyOutcome outcome;
  const OnlineMetrics& metrics = service.metrics();
  outcome.daily_pr_auc = metrics.daily_pr_auc_series();
  outcome.predictions = metrics.predictions();
  outcome.prefetches = metrics.prefetches();
  outcome.successful_prefetches = metrics.successful_prefetches();
  outcome.accesses = metrics.accesses();
  outcome.precision = metrics.precision();
  outcome.recall = metrics.recall();
  outcome.costs = service.policy().cost_summary();
  outcome.joiner = service.joiner_stats();
  return outcome;
}
}  // namespace

OnlineExperimentResult run_online_experiment(
    const data::Dataset& cohort, std::span<const std::size_t> users,
    const models::RnnModel& rnn_model, const models::GbdtModel& gbdt_model,
    const features::FeaturePipeline& gbdt_pipeline,
    const OnlineExperimentConfig& config) {
  // Time-ordered merge of all selected users' sessions.
  struct Item {
    std::int64_t t;
    std::size_t user;
    const data::Session* session;
  };
  std::vector<Item> stream;
  for (const std::size_t u : users) {
    for (const auto& s : cohort.users[u].sessions) {
      stream.push_back({s.timestamp, u, &s});
    }
  }
  std::sort(stream.begin(), stream.end(),
            [](const Item& a, const Item& b) { return a.t < b.t; });

  // Both RNN arms are tenants of one registry map: a TenantSpec names the
  // whole per-cohort stack and register_tenant() wires it. The frozen arm
  // serves version 1 (an exact weight clone) and captures nothing; the
  // online arm relearns from its own joiner feed.
  online::CohortRegistryMap tenants;

  online::TenantSpec frozen_spec;
  frozen_spec.id = "rnn";
  frozen_spec.model = std::shared_ptr<models::RnnModel>(rnn_model.clone());
  frozen_spec.dataset_meta = &cohort;
  frozen_spec.backend = storage::KvBackendSpec::local();
  frozen_spec.codec = config.rnn_codec;
  frozen_spec.threshold = config.rnn_threshold;
  frozen_spec.grace = config.grace;
  frozen_spec.capture = false;
  online::ServingStack& rnn_stack = tenants.register_tenant(frozen_spec);
  PrecomputeService& rnn_service = rnn_stack.service();

  // The GBDT baseline is not an RNN tenant (different policy type, no
  // registry/learner) — it stays on its own aggregation wiring.
  LocalKvStore gbdt_kv;
  AggregationService aggregation(gbdt_pipeline, gbdt_kv);
  GbdtPolicy gbdt_policy(gbdt_model, gbdt_pipeline, aggregation);
  PrecomputeService gbdt_service(gbdt_policy, config.gbdt_threshold,
                                 cohort.session_length, config.grace,
                                 cohort.start_time);

  // Third arm: the same trained weights, but served through a registry and
  // continually refit from the arm's own joiner feed. The learner only
  // ever sees what production would see — joined (context, access) records
  // delayed by window + grace — and every publish passes the prequential
  // gate inside run_update_round.
  online::ServingStack* online_stack = nullptr;
  std::int64_t next_update = 0;
  if (config.online_rnn_arm) {
    if (config.online_update_period <= 0) {
      throw std::invalid_argument(
          "run_online_experiment: online_update_period must be positive "
          "(the update schedule advances by it)");
    }
    online::TenantSpec online_spec;
    online_spec.id = "rnn_online";
    online_spec.model = std::shared_ptr<models::RnnModel>(rnn_model.clone());
    online_spec.dataset_meta = &cohort;
    online_spec.codec = config.rnn_codec;
    online_spec.threshold = config.rnn_threshold;
    online_spec.grace = config.grace;
    online_spec.cohort.learner = config.learner;
    // clone() never carries int8 replicas, so an int8-serving source model
    // must state its replica policy; the cohort ORs in the int8 gate.
    online_spec.cohort.quantize_replicas = rnn_model.quantized_serving();
    online_spec.learner_checkpoint = config.learner_checkpoint;
    if (!config.durable_state_dir.empty()) {
      // Durable tier: hidden states land in the crash-safe segment-log
      // store, and capture goes journal-first so a kill between journal
      // append and observe re-observes the session on reopen.
      storage::ensure_dir(config.durable_state_dir);
      online_spec.backend =
          storage::KvBackendSpec::durable_dir(config.durable_state_dir +
                                              "/kv");
      online_spec.replay_journal_dir = config.durable_state_dir + "/replay";
    }
    if (config.use_update_daemon) {
      // Replays are event-time deterministic: the auto triggers are parked
      // (no new-session threshold can fire) and every round is an explicit
      // drive_round() at the event-time schedule below — still executed on
      // the daemon thread, never on this replay thread.
      online_spec.cohort.daemon.min_new_sessions =
          std::numeric_limits<std::size_t>::max();
      online_spec.cohort.daemon.min_round_interval =
          std::chrono::milliseconds(0);
      if (!config.learner_checkpoint.empty()) {
        online_spec.cohort.daemon.checkpoint_every_rounds = 1;
        online_spec.cohort.daemon.checkpoint_path = config.learner_checkpoint;
      }
      online_spec.start_daemon = true;
    }
    online_stack = &tenants.register_tenant(online_spec);
    if (!stream.empty()) {
      next_update = stream.front().t + config.online_update_period;
    }
  }
  PrecomputeService* online_service =
      online_stack != nullptr ? &online_stack->service() : nullptr;
  online::OnlineLearner* learner =
      online_stack != nullptr ? &online_stack->cohort().learner() : nullptr;

  std::uint64_t next_session_id = 1;
  for (const Item& item : stream) {
    if (online_service != nullptr && item.t >= next_update) {
      if (online_stack->daemon_running()) {
        online_stack->cohort().daemon().drive_round();
      } else {
        const online::OnlineUpdateReport report =
            learner->run_update_round();
        if (report.ran && !config.learner_checkpoint.empty()) {
          learner->save_checkpoint(config.learner_checkpoint);
        }
      }
      while (next_update <= item.t) next_update += config.online_update_period;
    }
    const std::uint64_t session_id = next_session_id++;
    const std::uint64_t user_id = cohort.users[item.user].user_id;
    rnn_service.on_session_start(session_id, user_id, item.t,
                                 item.session->context);
    gbdt_service.on_session_start(session_id, user_id, item.t,
                                  item.session->context);
    if (online_service != nullptr) {
      online_service->on_session_start(session_id, user_id, item.t,
                                       item.session->context);
    }
    if (item.session->access) {
      // The access lands midway through the session window.
      const std::int64_t access_time = item.t + cohort.session_length / 2;
      rnn_service.on_access(session_id, access_time);
      gbdt_service.on_access(session_id, access_time);
      if (online_service != nullptr) {
        online_service->on_access(session_id, access_time);
      }
    }
  }

  OnlineExperimentResult result;
  result.sessions = stream.size();
  result.rnn = collect(rnn_service);
  result.gbdt = collect(gbdt_service);
  if (online_stack != nullptr) {
    if (online_stack->daemon_running()) {
      online_stack->stop_daemon();  // join the update thread before ledgers
      result.daemon = online_stack->cohort().daemon().stats();
    }
    if (!config.learner_checkpoint.empty()) {
      learner->save_checkpoint(config.learner_checkpoint);
    }
    result.rnn_online = collect(*online_service);
    result.learner = learner->stats();
    result.registry = online_stack->cohort().registry().stats();
    result.resumed_from_checkpoint = online_stack->resumed_from_checkpoint();
    result.replayed_journal_sessions =
        online_stack->replayed_journal_sessions();
    result.online_versions =
        online_stack->cohort().registry().current_version();
    online_stack->flush_durable();
  }
  return result;
}

}  // namespace pp::serving
