#include "online/online_learner.hpp"

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "eval/metrics.hpp"
#include "obs/metrics.hpp"
#include "storage/durable_io.hpp"

namespace pp::online {

namespace {

std::vector<std::size_t> all_users(const data::Dataset& dataset) {
  std::vector<std::size_t> users(dataset.users.size());
  std::iota(users.begin(), users.end(), 0);
  return users;
}

constexpr std::uint32_t kCheckpointMagic = 0x5050434bu;  // "KCPP" LE
// v2: the trainer's RNG cursors (minibatch shuffle + per-replica dropout)
// ride along with the Adam state, so a resumed learner draws the same
// minibatch orders an uninterrupted run would.
constexpr std::uint32_t kCheckpointVersion = 2;

}  // namespace

OnlineLearner::OnlineLearner(ModelRegistry& registry,
                             const data::Dataset& dataset_meta,
                             OnlineLearnerConfig config)
    : config_(config),
      registry_(&registry),
      meta_(dataset_meta.clone_meta()),
      buffer_(config.buffer) {
  if (config_.gate_int8 && !registry.quantize_replicas()) {
    throw std::invalid_argument(
        "OnlineLearner: gate_int8 needs a registry that rebuilds int8 "
        "replicas on publish");
  }
  const auto current = registry.current();
  shadow_ = current->model->clone();

  train::RnnTrainerConfig trainer_config;
  trainer_config.epochs = config_.epochs_per_round;
  trainer_config.learning_rate = config_.learning_rate;
  trainer_config.minibatch_users = config_.minibatch_users;
  trainer_config.grad_clip = config_.grad_clip;
  // Rounds are small; the sequential strategy keeps the incremental loop
  // replica-free and deterministic for a given config.
  trainer_config.strategy = train::BatchStrategy::kSequential;
  trainer_config.num_threads = 1;
  trainer_config.sequence = current->model->sequence_config();
  trainer_config.timeshift = current->model->timeshift();
  trainer_config.seed = config_.seed;
  trainer_ =
      std::make_unique<train::RnnTrainer>(shadow_->network(), trainer_config);

  auto& obs_registry = obs::MetricsRegistry::global();
  const obs::MetricsRegistry::Labels cohort{{"cohort", config_.cohort}};
  obs_round_ns_ = &obs_registry.histogram("pp_online_round_ns", cohort);
  collector_ = obs_registry.collect(cohort, [this](const obs::Emit& emit) {
    const OnlineLearnerStats s = stats();
    emit("pp_online_observed_sessions", s.observed_sessions);
    emit("pp_online_rounds", s.rounds);
    emit("pp_online_skipped", s.skipped);
    emit("pp_online_publishes", s.publishes);
    emit("pp_online_rejects", s.rejects);
    emit("pp_online_rollbacks", s.rollbacks);
    const ReplayBufferStats b = buffer_.stats();
    emit("pp_replay_observed", b.observed);
    emit("pp_replay_evicted_user_cap", b.evicted_user_cap);
    emit("pp_replay_evicted_capacity", b.evicted_capacity);
    emit("pp_replay_evicted_reservoir", b.evicted_reservoir);
    emit("pp_replay_rejected_reservoir", b.rejected_reservoir);
  });
}

OnlineLearner::~OnlineLearner() = default;

void OnlineLearner::observe(const serving::JoinedSession& joined) {
  // Deliberately does NOT take mutex_: observe runs on the serving side
  // (under the service mutex) and must never block behind a training
  // round. The buffer has its own short-lived lock and already counts
  // observations; stats() reads the count from there.
  buffer_.add(joined.user_id, joined.session_start, joined.context,
              joined.access);
}

void OnlineLearner::count(std::size_t OnlineLearnerStats::*field) {
  MutexLock lock(stats_mutex_);
  ++(stats_.*field);
}

double OnlineLearner::gate_pr_auc(const models::RnnModel& model,
                                  const data::Dataset& eval_ds,
                                  std::span<const std::size_t> users,
                                  std::int64_t emit_from,
                                  std::size_t* predictions) const {
  const train::ScoredSeries series =
      config_.gate_int8 ? model.score_q8(eval_ds, users, emit_from)
                        : model.score(eval_ds, users, emit_from);
  *predictions = series.scores.size();
  bool has_positive = false, has_negative = false;
  for (const float y : series.labels) {
    (y > 0.5f ? has_positive : has_negative) = true;
  }
  if (!has_positive || !has_negative) {
    return std::numeric_limits<double>::quiet_NaN();  // ungateable window
  }
  return eval::pr_auc(series.scores, series.labels);
}

OnlineUpdateReport OnlineLearner::run_update_round() {
  MutexLock lock(mutex_);
  // Round duration is recorded unconditionally (rounds are rare — two
  // clock reads per round are noise next to an epoch of training).
  obs::ScopedTimer round_timer(obs_round_ns_);
  OnlineUpdateReport report;
  count(&OnlineLearnerStats::rounds);
  report.version = registry_->current_version();

  const std::int64_t latest = buffer_.latest_time();
  const std::int64_t holdout_start = latest - config_.holdout_window;
  // holdout_start <= 0 means the buffer doesn't even span one holdout
  // window yet — and 0 in particular would collide with the "keep all" /
  // "emit all" sentinels of snapshot() and score_users, silently training
  // on the holdout. No gateable round exists either way.
  if (holdout_start <= 0) {
    count(&OnlineLearnerStats::skipped);
    return report;
  }
  // Both datasets come from snapshot() so there is exactly one
  // implementation of the time cutoff (and of the day-bound recompute);
  // the two short buffer locks are cheaper than semantic drift between a
  // hand-rolled filter and the tested `until` path.
  const data::Dataset train_ds = buffer_.snapshot(meta_, holdout_start);
  const data::Dataset eval_ds = buffer_.snapshot(meta_);
  report.train_sessions = train_ds.total_sessions();
  if (report.train_sessions < config_.min_train_sessions) {
    count(&OnlineLearnerStats::skipped);
    return report;
  }

  // ---- incremental fit on everything strictly before the holdout ----
  trainer_->set_loss_from(
      config_.loss_window > 0 ? holdout_start - config_.loss_window : 0);
  trainer_->fit(train_ds, all_users(train_ds));
  report.ran = true;
  if (config_.gate_int8 && !shadow_->quantized_serving()) {
    // First round only; RnnTrainer::fit refreshes the replicas afterwards.
    shadow_->enable_quantized_serving();
  }

  // ---- prequential gate on the held-out window ----
  const std::vector<std::size_t> eval_users = all_users(eval_ds);
  const auto current = registry_->current();
  std::size_t candidate_preds = 0, published_preds = 0;
  const double candidate_pr = gate_pr_auc(*shadow_, eval_ds, eval_users,
                                          holdout_start, &candidate_preds);
  const double published_pr = gate_pr_auc(*current->model, eval_ds,
                                          eval_users, holdout_start,
                                          &published_preds);
  report.candidate_pr_auc = candidate_pr;
  report.published_pr_auc = published_pr;
  report.holdout_predictions = candidate_preds;
  if (candidate_preds < config_.min_holdout_predictions ||
      std::isnan(candidate_pr) || std::isnan(published_pr)) {
    // Trained, but no gate decision was possible.
    count(&OnlineLearnerStats::skipped);
    return report;
  }

  if (candidate_pr >= published_pr - config_.max_pr_auc_regression) {
    report.version = registry_->publish(
        std::shared_ptr<models::RnnModel>(shadow_->clone()));
    report.published = true;
    count(&OnlineLearnerStats::publishes);
    return report;
  }

  count(&OnlineLearnerStats::rejects);
  if (config_.rollback_on_regression) {
    if (const auto prev = registry_->previous(); prev != nullptr) {
      std::size_t prev_preds = 0;
      const double prev_pr = gate_pr_auc(*prev->model, eval_ds, eval_users,
                                         holdout_start, &prev_preds);
      if (!std::isnan(prev_pr) &&
          published_pr < prev_pr - config_.max_pr_auc_regression &&
          registry_->rollback()) {
        report.rolled_back = true;
        count(&OnlineLearnerStats::rollbacks);
      }
    }
  }
  report.version = registry_->current_version();
  return report;
}

OnlineLearnerStats OnlineLearner::stats() const {
  MutexLock lock(stats_mutex_);
  OnlineLearnerStats out = stats_;
  out.observed_sessions = buffer_.stats().observed;
  return out;
}

void OnlineLearner::save_state(BinaryWriter& writer) const {
  MutexLock lock(mutex_);
  shadow_->network().serialize(writer);
  trainer_->serialize_optimizer(writer);
}

void OnlineLearner::load_state(BinaryReader& reader) {
  MutexLock lock(mutex_);
  shadow_->network().deserialize(reader);
  trainer_->deserialize_optimizer(reader);
}

void OnlineLearner::save_checkpoint(const std::string& path) const {
  BinaryWriter writer;
  writer.reserve(1 << 12);
  // One u64 header: version << 32 | magic.
  writer.write_u64(static_cast<std::uint64_t>(kCheckpointVersion) << 32 |
                   kCheckpointMagic);
  save_state(writer);
  // tmp + fsync + rename + parent-dir fsync, with the tmp unlinked on any
  // failure. The old inline rename here neither fsynced the tmp before the
  // rename (a crash soon after could surface an empty checkpoint: the
  // rename journals before the data blocks land) nor cleaned up the tmp
  // when the rename failed.
  storage::durable_write_file(path, writer.bytes().data(),
                              writer.bytes().size());
}

bool OnlineLearner::load_checkpoint(const std::string& path) {
  // A leftover <path>.tmp is a checkpoint whose write was interrupted
  // before the rename — garbage by construction, never to be loaded.
  storage::discard_stale_tmp(path);
  BinaryReader reader({});
  if (!BinaryReader::try_from_file(path, &reader)) {
    return false;  // fresh start — no checkpoint written yet
  }
  const std::uint64_t header = reader.read_u64();
  if (static_cast<std::uint32_t>(header) != kCheckpointMagic) {
    throw std::runtime_error("OnlineLearner: not a checkpoint file: " + path);
  }
  if (const auto v = static_cast<std::uint32_t>(header >> 32);
      v != kCheckpointVersion) {
    throw std::runtime_error("OnlineLearner: unsupported checkpoint version " +
                             std::to_string(v) + ": " + path);
  }
  load_state(reader);
  return true;
}

}  // namespace pp::online
