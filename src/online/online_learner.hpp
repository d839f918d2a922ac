// OnlineLearner — the control loop that closes serve→learn→serve (§10
// "reusable models", Figure 7's warmup curve bent upward):
//
//   serving joiner ──observe──▶ SessionReplayBuffer
//        ▲                            │ snapshot (train < holdout,
//        │                            │           eval = holdout window)
//   ModelRegistry ◀──gated publish── shadow RnnNetwork + RnnTrainer
//                                     (Adam state persists across rounds)
//
// Each update round trains the private shadow network for a few epochs
// over the buffered sessions *older* than the most recent holdout window,
// then gates: candidate and currently-published model both score the
// held-out window prequentially (they were trained only on data before
// it), and the candidate is published only when its PR-AUC does not
// regress beyond a configurable delta. There is no other publish path —
// every publish is gate-approved by construction, and the stats make that
// auditable (publishes + rejects + skipped == rounds).
#pragma once

#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "online/model_registry.hpp"
#include "online/replay_buffer.hpp"
#include "serving/stream.hpp"
#include "train/rnn_trainer.hpp"
#include "util/mutex.hpp"

namespace pp::online {

struct OnlineLearnerConfig {
  ReplayBufferConfig buffer;

  /// Cohort label on this learner's metrics (round latency, its stats and
  /// its buffer's). Observability only — no training behavior depends on
  /// it.
  std::string cohort = "default";

  // ---- incremental fit schedule (one round) ----
  int epochs_per_round = 1;
  double learning_rate = 1e-3;
  std::size_t minibatch_users = 10;
  double grad_clip = 5.0;
  std::uint64_t seed = 123;
  /// Restrict the training loss to the last N seconds before the holdout
  /// (0 = every buffered prediction carries loss).
  std::int64_t loss_window = 0;

  // ---- prequential gate ----
  /// Event-time width of the held-out window (the most recent buffered
  /// span): excluded from training, scored by the gate.
  std::int64_t holdout_window = 86400;
  /// Publish iff candidate PR-AUC >= published PR-AUC - max_regression.
  double max_pr_auc_regression = 0.01;
  /// Gate on the int8 serving numerics (score_users_q8) instead of f32 —
  /// what a kInt8 serving tier will actually run.
  bool gate_int8 = false;
  /// Rounds are skipped (no train, no publish) below these floors.
  std::size_t min_train_sessions = 100;
  std::size_t min_holdout_predictions = 20;
  /// On a reject, additionally roll the registry back when the *current*
  /// version also regresses beyond the delta against the previous
  /// retained version on the same holdout (drift bad enough that the last
  /// publish is now hurting).
  bool rollback_on_regression = false;
};

struct OnlineUpdateReport {
  /// False when the round was skipped (not enough buffered data or an
  /// ungateable single-class holdout); nothing was trained or published.
  bool ran = false;
  bool published = false;
  bool rolled_back = false;
  double candidate_pr_auc = 0;
  double published_pr_auc = 0;
  std::size_t train_sessions = 0;
  std::size_t holdout_predictions = 0;
  /// Registry version after the round.
  std::uint64_t version = 0;
};

struct OnlineLearnerStats {
  std::size_t observed_sessions = 0;
  std::size_t rounds = 0;
  std::size_t skipped = 0;
  std::size_t publishes = 0;
  std::size_t rejects = 0;
  std::size_t rollbacks = 0;
};

class OnlineLearner {
 public:
  /// `dataset_meta` supplies the schema/timing constants for replay
  /// snapshots (users are ignored); the shadow network's architecture and
  /// sequence semantics come from the registry's current version.
  OnlineLearner(ModelRegistry& registry, const data::Dataset& dataset_meta,
                OnlineLearnerConfig config);
  ~OnlineLearner();

  /// Capture path — wire as the PrecomputeService completion listener.
  /// Thread-safe against a concurrent run_update_round().
  void observe(const serving::JoinedSession& joined);

  /// One incremental round: fit the shadow on the buffer minus the
  /// holdout, gate on the holdout, publish/reject (+optional rollback).
  /// Serialized internally; call from one control thread at a time.
  OnlineUpdateReport run_update_round();

  const SessionReplayBuffer& buffer() const { return buffer_; }
  /// Never waits for a round in flight.
  OnlineLearnerStats stats() const;
  const ModelRegistry& registry() const { return *registry_; }
  const std::string& cohort() const { return config_.cohort; }

  /// Persists / restores the learner's training state (shadow weights +
  /// Adam moments + step count) so incremental training survives a
  /// restart. The buffer is not included (replay it from the stream).
  void save_state(BinaryWriter& writer) const;
  void load_state(BinaryReader& reader);

  /// File-backed checkpoint of save_state/load_state with a versioned
  /// header, written atomically (tmp file + rename) so a process killed
  /// mid-write never leaves a torn checkpoint behind. The
  /// OnlineUpdateDaemon calls save_checkpoint on its cadence;
  /// load_checkpoint returns false when no checkpoint exists yet (fresh
  /// start) and throws on a corrupt or mismatched file.
  void save_checkpoint(const std::string& path) const;
  bool load_checkpoint(const std::string& path);

 private:
  double gate_pr_auc(const models::RnnModel& model,
                     const data::Dataset& eval_ds,
                     std::span<const std::size_t> users,
                     std::int64_t emit_from, std::size_t* predictions) const;
  void count(std::size_t OnlineLearnerStats::*field)
      PP_EXCLUDES(stats_mutex_);

  OnlineLearnerConfig config_;
  ModelRegistry* registry_;
  data::Dataset meta_;  // schema + timing constants only, users empty
  SessionReplayBuffer buffer_;
  // Round latency (process-global registry, labeled cohort=config.cohort).
  obs::LatencyHistogram* obs_round_ns_ = nullptr;

  /// Held by run_update_round for a whole round.
  mutable Mutex mutex_ PP_ACQUIRED_BEFORE(stats_mutex_);
  /// Private trainable copy of the published model; never served.
  std::unique_ptr<models::RnnModel> shadow_ PP_GUARDED_BY(mutex_);
  /// Persistent trainer: Adam moments and step count survive rounds.
  std::unique_ptr<train::RnnTrainer> trainer_ PP_GUARDED_BY(mutex_);
  /// Round counters under their own short lock, so stats() readers (the
  /// daemon's trigger, a scrape) never wait behind a fit.
  mutable Mutex stats_mutex_;
  OnlineLearnerStats stats_ PP_GUARDED_BY(stats_mutex_);
  /// pp_online_<field> and pp_replay_<field>, labeled cohort.
  obs::Collector collector_;
};

}  // namespace pp::online
