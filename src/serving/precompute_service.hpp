// The production serving loop of §9: at session start the policy scores
// the user (RNN: one hidden-state lookup + MLP; GBDT: ~20 aggregation
// lookups + tree walk), the service triggers precompute when the score
// clears the threshold, and when the session's window closes the stream
// joiner delivers the completed (context, access) record back to the
// policy to update its per-user state.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "models/gbdt_model.hpp"
#include "models/rnn_model.hpp"
#include "obs/metrics.hpp"
#include "online/model_registry.hpp"
#include "serving/aggregation_service.hpp"
#include "serving/hidden_store.hpp"
#include "serving/stream.hpp"
#include "train/scorer.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace pp::serving {

/// Cost ledger for one serving policy (the §9 comparison).
struct ServingCostSummary {
  std::size_t predictions = 0;
  std::size_t state_updates = 0;
  std::size_t model_flops = 0;  // multiply-accumulates in model evaluation
  KvStats kv;
  std::size_t storage_bytes = 0;
  std::size_t live_keys = 0;

  double lookups_per_prediction() const {
    return predictions == 0 ? 0.0
                            : static_cast<double>(kv.lookups) /
                                  static_cast<double>(predictions);
  }
  double flops_per_prediction() const {
    return predictions == 0 ? 0.0
                            : static_cast<double>(model_flops) /
                                  static_cast<double>(predictions);
  }
};

/// One session start, the unit of batched scoring (score_sessions).
struct SessionStart {
  std::uint64_t session_id = 0;
  std::uint64_t user_id = 0;
  std::int64_t t = 0;
  std::array<std::uint32_t, data::kMaxContextFields> context{};
};

class PrecomputePolicy {
 public:
  virtual ~PrecomputePolicy() = default;
  /// Access-probability estimate at session start.
  virtual double score_session(std::uint64_t user_id, std::int64_t t,
                               std::span<const std::uint32_t> context) = 0;
  /// Batched session-start scoring against one state snapshot. The default
  /// loops score_session; policies with a batchable model override it to
  /// amortize one GEMM across the cohort. Element i must equal the
  /// corresponding score_session call (same scores, same cost counters).
  virtual std::vector<double> score_sessions(
      std::span<const SessionStart> sessions);
  /// Completed-session callback from the stream joiner.
  virtual void on_session_complete(const JoinedSession& joined) = 0;
  /// Called by the service — under its mutex, never concurrently with
  /// scoring — at every point a model hot-swap may be observed: before
  /// each snapshot group (a single session start is its own group).
  /// Registry-backed policies re-pin their model snapshot here, so one
  /// snapshot group is always scored (and its timer-driven completions
  /// applied) by exactly one model version. Default: no-op.
  ///
  /// The "under its mutex, never concurrently with scoring" contract is a
  /// compile-checked capability, not a comment: callers must hold
  /// serial_token() (a zero-cost pp::SerialToken), which the service
  /// claims with a SerialSection wherever it already holds its mutex.
  /// Direct callers (tests, single-threaded drivers) claim it the same
  /// way, making every call site of the contract grep-able.
  virtual void begin_batch() PP_REQUIRES(serial_) {}
  /// The capability naming the begin-batch serialization contract.
  const SerialToken& serial_token() const PP_RETURN_CAPABILITY(serial_) {
    return serial_;
  }
  /// Whether score_sessions / on_session_complete tolerate concurrent
  /// callers. The threaded service driver only fans out over policies
  /// that opt in; everything else is scored on the calling thread.
  virtual bool concurrent_safe() const { return false; }
  virtual ServingCostSummary cost_summary() const = 0;
  virtual const char* name() const = 0;

 protected:
  /// See begin_batch(). Protected so overrides can restate the
  /// requirement (thread-safety attributes are not inherited).
  SerialToken serial_;
};

/// Numeric mode of the RNN serving path. kInt8 scores directly on the
/// stored single-byte hidden states (§9): the KV bytes feed the quantized
/// GRU update and the batched int8 RNNpredict head with no f32 decode of
/// the state and no f32 weight matrix at serve time.
enum class ScorePrecision { kFloat32, kInt8 };

/// RNN serving (§9): hidden state + t_k in the KV store; TorchScript-like
/// split execution — MLP at session start, GRU at session end, both on the
/// precision's scorer (train/scorer.hpp), as the offline replay runs them.
///
/// Thread-safe: score_sessions / on_session_complete may be called from
/// concurrent serving workers. Per-user state access is serialized through
/// striped locks keyed by user_id (the Graves-style ordering constraint:
/// each user's recurrent state update is strictly ordered, everything else
/// fans out), and the cost counters are atomics.
///
/// kInt8 requires a kInt8-codec store and a model with
/// enable_quantized_serving() already called (throws otherwise). The int8
/// mode keeps every batching/threading invariant of the f32 path: per-row
/// activation quantization plus exact integer accumulation make batched,
/// single, and thread-partitioned scoring bit-identical.
class RnnPolicy final : public PrecomputePolicy {
 public:
  RnnPolicy(const models::RnnModel& model, HiddenStateStore& store,
            ScorePrecision precision = ScorePrecision::kFloat32);
  /// Registry-backed (hot-swappable) policy: the model is re-resolved from
  /// the registry at every begin_batch() and pinned until the next one, so
  /// scoring/completions between two begin_batch() calls always use one
  /// version. kInt8 additionally requires the registry to rebuild int8
  /// replicas on publish (so no published version can ever lack them).
  RnnPolicy(const online::ModelRegistry& registry, HiddenStateStore& store,
            ScorePrecision precision = ScorePrecision::kFloat32);

  double score_session(std::uint64_t user_id, std::int64_t t,
                       std::span<const std::uint32_t> context) override;
  /// Batched variant: B hidden-state lookups feed one batched RNNpredict
  /// call. Scores and cost counters match B score_session calls exactly.
  /// A warm call allocates only the B KV values and the returned scores.
  std::vector<double> score_sessions(
      std::span<const SessionStart> sessions) override;
  void on_session_complete(const JoinedSession& joined) override;
  void begin_batch() override PP_REQUIRES(serial_);
  bool concurrent_safe() const override { return true; }
  ServingCostSummary cost_summary() const override;
  const char* name() const override {
    return precision_ == ScorePrecision::kInt8 ? "rnn-int8" : "rnn";
  }
  ScorePrecision precision() const { return precision_; }
  /// Version pinned by the last begin_batch() (0 for a fixed model).
  /// Reads the pin itself, so like begin_batch() it may only run
  /// serialized against re-pinning — callers hold serial_token().
  std::uint64_t model_version() const PP_REQUIRES(serial_) {
    return active_ ? active_->version : 0;
  }

 private:
  using AnyScorer = std::variant<train::F32Scorer, train::Int8Scorer>;

  /// The one precision dispatch: precision_'s scorer over model(), after
  /// checking the int8 preconditions.
  AnyScorer bind_scorer() const;
  /// score_sessions / on_session_complete, written once over a scorer.
  template <class S>
  std::vector<double> score_with(const S& scorer,
                                 std::span<const SessionStart> sessions);
  template <class S>
  void complete_with(const S& scorer, const JoinedSession& joined);

  /// Resolves user_id to its stripe. PP_RETURN_CAPABILITY tells the
  /// analysis which array element a MutexLock at the call site actually
  /// acquires, so two different stripes are never conflated.
  Mutex& stripe_for(std::uint64_t user_id)
      PP_RETURN_CAPABILITY(stripes_[user_id % kLockStripes]) {
    return stripes_[user_id % kLockStripes];
  }
  /// The model every score/update in the current pin window uses. Fixed
  /// model or the pinned registry snapshot. Deliberately NOT guarded by
  /// serial_: scoring workers read the pin concurrently with each other,
  /// which is safe because the service only re-pins (begin_batch, under
  /// serial_) while no scoring is in flight — writes and reads are
  /// separated in time by the group structure, not by a lock.
  const models::RnnModel& model() const {
    return registry_ != nullptr ? *active_->model : *model_;
  }

  static constexpr std::size_t kLockStripes = 64;

  /// Resolves the policy's obs instruments once (registry lookups happen
  /// here, never on the scoring path). Observe-only: these record latency
  /// distributions, nothing reads them back into a decision.
  void init_obs();

  const models::RnnModel* model_;
  const online::ModelRegistry* registry_ = nullptr;
  std::shared_ptr<const online::ModelVersion> active_;
  HiddenStateStore* store_;
  ScorePrecision precision_;
  features::LogBucketizer bucketizer_;
  /// Bound to model(); begin_batch() re-binds it with the pin, under the
  /// same no-scoring-in-flight contract.
  AnyScorer scorer_;
  /// Striped per-user locks: one stripe serializes the read-modify-write
  /// of every user hashing to it; different stripes never contend.
  std::array<Mutex, kLockStripes> stripes_;
  std::atomic<std::size_t> predictions_{0};
  std::atomic<std::size_t> state_updates_{0};
  std::atomic<std::size_t> model_flops_{0};
  // Per-stage latency histograms (sampled; see obs::TraceSpan). Raw
  // pointers into the process-global MetricsRegistry, valid for the
  // process lifetime.
  obs::LatencyHistogram* obs_kv_get_ = nullptr;
  obs::LatencyHistogram* obs_encode_ = nullptr;
  obs::LatencyHistogram* obs_gru_ = nullptr;
  obs::LatencyHistogram* obs_batch_wall_ = nullptr;
  obs::LatencyHistogram* obs_batch_sessions_ = nullptr;
  obs::Collector collector_;  // the three ledger atomics, labeled policy
};

/// GBDT serving (§9): aggregation features from the stream-maintained
/// KV counters, then a tree-ensemble walk.
class GbdtPolicy final : public PrecomputePolicy {
 public:
  GbdtPolicy(const models::GbdtModel& model,
             const features::FeaturePipeline& pipeline,
             AggregationService& aggregation);

  double score_session(std::uint64_t user_id, std::int64_t t,
                       std::span<const std::uint32_t> context) override;
  void on_session_complete(const JoinedSession& joined) override;
  ServingCostSummary cost_summary() const override;
  const char* name() const override { return "gbdt"; }

 private:
  const models::GbdtModel* model_;
  const features::FeaturePipeline* pipeline_;
  AggregationService* aggregation_;
  features::SparseRow row_;
  std::vector<float> dense_;
  /// Atomics like RnnPolicy's: the collector reads them from a scrape.
  std::atomic<std::size_t> predictions_{0};
  std::atomic<std::size_t> state_updates_{0};
  std::atomic<std::size_t> model_flops_{0};
  obs::Collector collector_;
};

/// Per-day online quality series (Figure 7) plus prefetch accounting.
class OnlineMetrics {
 public:
  OnlineMetrics(std::int64_t start_time) : start_time_(start_time) {}

  void record(std::int64_t t, double score, bool prefetched, bool access);

  std::size_t days() const { return daily_scores_.size(); }
  /// PR-AUC of one day's predictions (NaN-free: returns 0 when a day has
  /// no positives).
  double daily_pr_auc(std::size_t day) const;
  std::vector<double> daily_pr_auc_series() const;

  std::size_t predictions() const { return total_predictions_; }
  std::size_t prefetches() const { return total_prefetches_; }
  std::size_t successful_prefetches() const { return successful_; }
  std::size_t accesses() const { return total_accesses_; }
  /// Fraction of prefetches that were followed by an access.
  double precision() const;
  /// Fraction of accesses that had been prefetched.
  double recall() const;

 private:
  std::int64_t start_time_;
  std::vector<std::vector<double>> daily_scores_;
  std::vector<std::vector<float>> daily_labels_;
  std::size_t total_predictions_ = 0;
  std::size_t total_prefetches_ = 0;
  std::size_t successful_ = 0;
  std::size_t total_accesses_ = 0;
};

/// Ties one policy to the stream joiner, a trigger threshold, and metrics.
class PrecomputeService {
 public:
  PrecomputeService(PrecomputePolicy& policy, double threshold,
                    std::int64_t session_length, std::int64_t grace,
                    std::int64_t metrics_start);

  /// The one event path: every context and access event enters here (the
  /// methods below wrap it). Events are applied in non-decreasing t order,
  /// stable within a timestamp, with exactly the effect of a one-at-a-time
  /// replay of that order: a context advances the joiner to its t (firing
  /// due timers, i.e. completed sessions' state updates), is scored,
  /// thresholded and fed to the joiner with its score and decision; an
  /// access is fed to the joiner and does not move the clock. A context the
  /// joiner would drop as a duplicate (its session pending with a context,
  /// or remembered as fired) is not scored: its decision is the one its
  /// session got at first delivery while pending, false once joined.
  ///
  /// Scoring runs per snapshot group. A group starts at a context (model
  /// pin via begin_batch(), then advance_to(t)) and extends over the
  /// following contexts while their t is below the smaller of t + window
  /// + grace and the earliest pending timer; accesses never start or cut
  /// a group. No timer can fire inside a group (an access registers at
  /// most an orphan timer at its t + window + grace, never before the
  /// bound) and a score reads only policy state, so the group's contexts
  /// are scored against one snapshot, then the group's events — up to the
  /// next group's first context — are applied in order. A session delivered
  /// twice within a group is scored once, for its first delivery. Results
  /// therefore do not depend on how a stream is cut into calls.
  ///
  /// With a pool and a concurrent_safe() policy a group's scoring is
  /// partitioned user-affinely (user_id picks the worker), so any user's
  /// hidden state is touched by one worker and scores equal the inline
  /// path's bit for bit. The joiner stays single-writer: timer fires and
  /// event feeds run on the calling thread under the service mutex.
  ///
  /// `decisions` is empty or has events.size() entries; the decision of
  /// context events[i] lands in decisions[i], access slots are left as
  /// they are. If scoring throws, every group before the failing one has
  /// been applied, and the failing group's timers have fired.
  void on_events(std::span<const StreamEvent> events,
                 ThreadPool* pool = nullptr, std::span<bool> decisions = {})
      PP_EXCLUDES(mutex_);
  /// One context event through on_events(). Returns the decision.
  bool on_session_start(std::uint64_t session_id, std::uint64_t user_id,
                        std::int64_t t,
                        const std::array<std::uint32_t,
                                         data::kMaxContextFields>& context);
  /// Context events through one on_events() call; decisions return in
  /// input order.
  std::vector<bool> on_session_starts(std::span<const SessionStart> sessions,
                                      ThreadPool* pool = nullptr);
  /// One access event through on_events().
  void on_access(std::uint64_t session_id, std::int64_t t);
  void advance_to(std::int64_t t);
  void flush();

  /// Joiner→learner feed: `listener` receives every joined session right
  /// after the policy's state update, under the service mutex (keep it
  /// cheap — e.g. OnlineLearner::observe, which just appends to the replay
  /// buffer). Pass nullptr to detach.
  void set_completion_listener(
      std::function<void(const JoinedSession&)> listener);

  /// Snapshots (copies) taken under the service mutex: safe to call from
  /// a monitoring thread while drivers are mid-batch.
  OnlineMetrics metrics() const {
    MutexLock guard(mutex_);
    return metrics_;
  }
  JoinerStats joiner_stats() const {
    MutexLock guard(mutex_);
    return joiner_.stats();
  }
  PrecomputePolicy& policy() { return *policy_; }
  double threshold() const { return threshold_; }

 private:
  /// Scores one snapshot group, fanning out across `pool` when given one.
  /// Runs under the service mutex (on_events' group loop); worker threads
  /// it fans out to touch only policy state, never the mutex_-guarded
  /// event stream.
  std::vector<double> score_group(std::span<const SessionStart> group,
                                  ThreadPool* pool) PP_REQUIRES(mutex_);
  /// Joiner completion callback body: the Figure 7 record, the policy
  /// state update, then the listener feed. Only reachable from joiner_
  /// calls, which all happen under mutex_.
  void handle_joined(const JoinedSession& joined) PP_REQUIRES(mutex_);

  PrecomputePolicy* policy_;
  double threshold_;
  // Decision/joiner-stage instrumentation (observe-only; resolved once in
  // the constructor, labeled by policy name).
  obs::LatencyHistogram* obs_decision_ns_ = nullptr;
  obs::Counter* obs_prefetches_ = nullptr;
  obs::Counter* obs_skips_ = nullptr;
  /// window + grace: the minimum delay between a context event and its
  /// join timer, i.e. the scoring-snapshot horizon of one batch group.
  std::int64_t horizon_;
  /// Single-writer guard for the joiner / metrics state; scoring itself
  /// fans out, but event-stream mutation never does.
  mutable Mutex mutex_;
  SessionJoiner joiner_ PP_GUARDED_BY(mutex_);
  OnlineMetrics metrics_ PP_GUARDED_BY(mutex_);
  std::function<void(const JoinedSession&)> completion_listener_
      PP_GUARDED_BY(mutex_);
  /// How one context event of a snapshot group is decided: by the score of
  /// group_[start] (its own, or its session's first delivery in the
  /// group), or, for a session the joiner already holds (start == kKnown),
  /// by `decision`.
  struct Pick {
    static constexpr std::size_t kKnown = ~std::size_t{0};
    std::size_t start = kKnown;
    bool decision = false;
  };

  // on_events scratch, reused across calls so that a one-event call
  // allocates nothing for it: the time order of the call's events, the
  // current snapshot group's session starts to score and its contexts'
  // picks.
  std::vector<std::size_t> order_ PP_GUARDED_BY(mutex_);
  std::vector<SessionStart> group_ PP_GUARDED_BY(mutex_);
  std::vector<Pick> picks_ PP_GUARDED_BY(mutex_);
  /// pp_joiner_<field> and the pp_service_* totals of metrics_, labeled
  /// policy, read under mutex_ (never through metrics(), a full copy).
  obs::Collector collector_;
};

}  // namespace pp::serving
