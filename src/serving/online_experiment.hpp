// Online A/B replay (§9 / Figure 7): a cohort of users with empty serving
// state is replayed day by day through two production pipelines — the RNN
// policy (hidden-state store) and the GBDT policy (aggregation service).
// Both see the same session stream; per-day PR-AUC traces the cold-start
// warmup, and the prefetch ledgers give the "successful prefetch" /
// serving-cost comparison.
#pragma once

#include <span>

#include "online/online_learner.hpp"
#include "online/update_daemon.hpp"
#include "serving/precompute_service.hpp"

namespace pp::serving {

struct PolicyOutcome {
  std::vector<double> daily_pr_auc;
  std::size_t predictions = 0;
  std::size_t prefetches = 0;
  std::size_t successful_prefetches = 0;
  std::size_t accesses = 0;
  double precision = 0;
  double recall = 0;
  ServingCostSummary costs;
  JoinerStats joiner;
};

struct OnlineExperimentResult {
  PolicyOutcome rnn;
  PolicyOutcome gbdt;
  /// The continual-learning arm (populated when online_rnn_arm is set):
  /// same initial weights as `rnn`, but served through a ModelRegistry and
  /// incrementally refit from its own joiner feed.
  PolicyOutcome rnn_online;
  online::OnlineLearnerStats learner;
  online::ModelRegistryStats registry;
  /// Round-origin ledger of the background updater (populated when
  /// use_update_daemon is set): daemon.rounds_driven == learner.rounds
  /// proves no update round ever ran on the replay (serving) thread.
  online::OnlineUpdateDaemonStats daemon;
  /// Whether learner_checkpoint existed and was restored before replay.
  bool resumed_from_checkpoint = false;
  /// Sessions replayed out of the durable journal into the learner's
  /// buffer before the stream started (durable_state_dir only).
  std::size_t replayed_journal_sessions = 0;
  /// Final published version of the online arm (1 = never republished).
  std::uint64_t online_versions = 0;
  std::size_t sessions = 0;
};

struct OnlineExperimentConfig {
  double rnn_threshold = 0.5;
  double gbdt_threshold = 0.5;
  /// Stream grace period ε added to the session-length timer.
  std::int64_t grace = 60;
  StateCodec rnn_codec = StateCodec::kFloat32;
  /// Enables the third (online-RNN) arm: frozen vs continually-learned
  /// replay over the same stream (Figure 7 bent upward).
  bool online_rnn_arm = false;
  online::OnlineLearnerConfig learner;
  /// Event-time period between OnlineLearner update rounds.
  std::int64_t online_update_period = 86400;
  /// Route every update round through an OnlineUpdateDaemon: the replay
  /// thread requests rounds at the same event-time schedule but they
  /// execute on the daemon's background thread (drive_round), exactly as
  /// the production wiring would — and the result's daemon ledger proves
  /// it. The daemon's auto triggers stay disabled so the event-time
  /// schedule remains deterministic.
  bool use_update_daemon = false;
  /// When non-empty: restore the learner from this checkpoint before the
  /// replay (if the file exists), checkpoint after every round that ran
  /// (daemon cadence under use_update_daemon, inline otherwise), and write
  /// a final checkpoint after the replay — so a killed process resumes its
  /// Adam state bit-identically.
  std::string learner_checkpoint;
  /// When non-empty (online_rnn_arm only): back the online arm's serving
  /// state with the durable tier under this directory — hidden states in a
  /// crash-safe DurableKvStore at <dir>/kv, the replay buffer's observed
  /// stream journaled at <dir>/replay and replayed into the learner on
  /// open. Together with learner_checkpoint this makes the whole arm
  /// kill-and-resume: a process killed mid-replay reopens the directory
  /// and continues with decisions, cost ledger, and learner rounds
  /// bit-identical to an uninterrupted run.
  std::string durable_state_dir;
};

/// Replays the selected users' sessions (time-ordered across users)
/// through both serving stacks. Models must already be trained.
OnlineExperimentResult run_online_experiment(
    const data::Dataset& cohort, std::span<const std::size_t> users,
    const models::RnnModel& rnn_model, const models::GbdtModel& gbdt_model,
    const features::FeaturePipeline& gbdt_pipeline,
    const OnlineExperimentConfig& config);

}  // namespace pp::serving
