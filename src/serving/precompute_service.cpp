#include "serving/precompute_service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "eval/metrics.hpp"
#include "obs/metrics.hpp"
#include "train/sequence.hpp"
#include "util/math.hpp"

namespace pp::serving {

// -------------------------------------------------------- PrecomputePolicy

std::vector<double> PrecomputePolicy::score_sessions(
    std::span<const SessionStart> sessions) {
  std::vector<double> scores;
  scores.reserve(sessions.size());
  for (const SessionStart& s : sessions) {
    scores.push_back(score_session(s.user_id, s.t, s.context));
  }
  return scores;
}

namespace {

/// The collector of a policy's three ledger counters, labeled policy.
obs::Collector collect_ledger(const char* policy,
                              const std::atomic<std::size_t>& predictions,
                              const std::atomic<std::size_t>& state_updates,
                              const std::atomic<std::size_t>& model_flops) {
  return obs::MetricsRegistry::global().collect(
      {{"policy", policy}}, [&](const obs::Emit& emit) {
        emit("pp_cost_predictions", predictions.load());
        emit("pp_cost_state_updates", state_updates.load());
        emit("pp_cost_model_flops", model_flops.load());
      });
}

/// A scoring thread's x rows and hidden block for scorer S, grown once and
/// reused by every later call on the thread (the head keeps its own
/// scratch): a warm score allocates only the KV value and the result.
template <class S>
struct ScoreScratch {
  std::vector<float> x;
  typename S::Block hidden;
};

template <class S>
ScoreScratch<S>& score_scratch() {
  thread_local ScoreScratch<S> scratch;
  return scratch;
}

}  // namespace

// --------------------------------------------------------------- RnnPolicy

RnnPolicy::RnnPolicy(const models::RnnModel& model, HiddenStateStore& store,
                     ScorePrecision precision)
    : model_(&model),
      store_(&store),
      precision_(precision),
      bucketizer_(
          static_cast<int>(model.network().config().time_buckets)),
      scorer_(bind_scorer()) {
  init_obs();
}

RnnPolicy::RnnPolicy(const online::ModelRegistry& registry,
                     HiddenStateStore& store, ScorePrecision precision)
    : model_(nullptr),
      registry_(&registry),
      active_(registry.current()),
      store_(&store),
      precision_(precision),
      // Geometry is fixed across publishes (the registry enforces it), so
      // the seed version's time encoding is every version's time encoding.
      bucketizer_(static_cast<int>(
          registry.current()->model->network().config().time_buckets)),
      scorer_(bind_scorer()) {
  init_obs();
}

RnnPolicy::AnyScorer RnnPolicy::bind_scorer() const {
  if (precision_ == ScorePrecision::kFloat32) {
    return train::F32Scorer(model().network());
  }
  if (store_->codec() != StateCodec::kInt8) {
    throw std::invalid_argument(
        "RnnPolicy: int8 scoring needs a kInt8-codec HiddenStateStore");
  }
  // Through a registry every published version needs fresh int8 replicas.
  if (!model().quantized_serving() ||
      (registry_ != nullptr && !registry_->quantize_replicas())) {
    throw std::invalid_argument(
        "RnnPolicy: int8 scoring needs RnnModel::enable_quantized_serving() "
        "(through a registry: quantize_replicas)");
  }
  return train::Int8Scorer(model().network());
}

void RnnPolicy::init_obs() {
  auto& registry = obs::MetricsRegistry::global();
  const char* prec =
      std::visit([](const auto& s) { return s.kLabel; }, scorer_);
  obs_kv_get_ = &registry.histogram(
      "pp_serving_stage_ns", {{"stage", "kv_get"}, {"precision", prec}});
  obs_encode_ = &registry.histogram(
      "pp_serving_stage_ns",
      {{"stage", "feature_encode"}, {"precision", prec}});
  obs_gru_ = &registry.histogram(
      "pp_serving_stage_ns", {{"stage", "gru_update"}, {"precision", prec}});
  obs_batch_wall_ =
      &registry.histogram("pp_serving_batch_ns", {{"precision", prec}});
  obs_batch_sessions_ =
      &registry.histogram("pp_serving_batch_sessions", {{"precision", prec}});
  collector_ =
      collect_ledger(name(), predictions_, state_updates_, model_flops_);
}

void RnnPolicy::begin_batch() {
  if (registry_ == nullptr) return;
  if (auto current = registry_->current(); current != active_) {
    active_ = std::move(current);
    scorer_ = bind_scorer();
  }
}

double RnnPolicy::score_session(std::uint64_t user_id, std::int64_t t,
                                std::span<const std::uint32_t> context) {
  // One-element batch: score_sessions owns the encode/gap/cold-start and
  // cost-accounting logic, so single and batched scoring cannot drift.
  SessionStart s;
  s.user_id = user_id;
  s.t = t;
  std::copy_n(context.begin(), std::min(context.size(), s.context.size()),
              s.context.begin());
  return score_sessions({&s, 1}).front();
}

template <class S>
std::vector<double> RnnPolicy::score_with(
    const S& scorer, std::span<const SessionStart> sessions) {
  const std::size_t batch = sessions.size();
  if (batch == 0) return {};
  const models::RnnModel& active = model();
  const train::RnnNetwork& net = active.network();
  const auto& seq_cfg = active.sequence_config();
  const std::size_t fw = net.config().feature_size;
  const std::size_t tb = net.config().time_buckets;

  ScoreScratch<S>& scratch = score_scratch<S>();
  if (scratch.x.size() < batch * (fw + tb)) scratch.x.resize(batch * (fw + tb));
  float* x = scratch.x.data();
  // f32 mode reads decoded hidden rows; int8 mode the stored bytes
  // themselves (per-row scales). Cold users get the cell's actual initial
  // state (not an assumed zero fill) in either precision.
  typename S::Block& h = scratch.hidden;
  h.reshape(batch, net.config().hidden_size);
  // Per-batch stage breakdown (sampled 1-in-N): kv_get and feature_encode
  // accumulate per-session laps; head_gemm/sigmoid are recorded inside
  // scorer.score under the same SampledSection; the span's total is this
  // function's wall time. Pure observation — no branch below depends
  // on a recorded value.
  obs::TraceSpan span({obs_kv_get_, obs_encode_}, obs_batch_wall_);
  for (std::size_t b = 0; b < batch; ++b) {
    const SessionStart& s = sessions[b];
    span.stage_begin();
    // Still one KV lookup per session (§9's dominant serving cost term);
    // only the model evaluation is batched.
    const std::optional<StateStamp> stamp =
        scorer.read(*store_, s.user_id, net, h, b);
    if (!stamp.has_value()) scorer.gather(h, b, scorer.cold());
    span.stage_add(0);  // kv_get: lookup + hidden read
    const std::span<float> x_row(x + b * (fw + tb), fw + tb);
    std::fill_n(x_row.begin(), fw, 0.0f);
    if (seq_cfg.context_at_predict && fw > 0) {
      train::encode_step_features(active.schema(), seq_cfg.feature_mode,
                                  s.t, s.context, x_row);
    }
    const std::int64_t gap = stamp.has_value() && stamp->updates > 0
                                 ? s.t - stamp->last_update_time
                                 : 0;
    bucketizer_.encode(gap, x_row.subspan(fw, tb));
    span.stage_add(1);  // feature_encode: context + gap bucketization
  }

  std::vector<double> scores = scorer.score(h, x);
  if (span.sampled()) {
    obs_batch_sessions_->record(static_cast<std::int64_t>(batch));
  }
  predictions_.fetch_add(batch, std::memory_order_relaxed);
  model_flops_.fetch_add(batch * net.predict_flops(),
                         std::memory_order_relaxed);
  return scores;
}

std::vector<double> RnnPolicy::score_sessions(
    std::span<const SessionStart> sessions) {
  return std::visit(
      [&](const auto& scorer) { return score_with(scorer, sessions); },
      scorer_);
}

template <class S>
void RnnPolicy::complete_with(const S& scorer, const JoinedSession& joined) {
  const models::RnnModel& active = model();
  const train::RnnNetwork& net = active.network();
  const auto& seq_cfg = active.sequence_config();
  const std::size_t fw = net.config().feature_size;
  const std::size_t tb = net.config().time_buckets;

  // gru_update stage: the whole completion (get -> GRU step -> put) is the
  // paper's state-update cost unit.
  obs::ScopedTimer stage_timer(obs::sample_tick() ? obs_gru_ : nullptr);

  // Read the prior state in the active precision. The int8 mode keeps the
  // stored bytes as-is: they feed the quantized GRU products directly and
  // only the updated hidden is re-encoded.
  BasicStoredState<typename S::State> state;
  if (auto stored = store_->get<typename S::State>(joined.user_id, net);
      stored.has_value()) {
    state = std::move(*stored);
  } else {
    state.state = scorer.cold();
  }

  tensor::Matrix row(1, fw + tb + 1);
  if (fw > 0) {
    train::encode_step_features(active.schema(), seq_cfg.feature_mode,
                                joined.session_start, joined.context,
                                row.row(0));
  }
  const std::int64_t dt =
      state.updates > 0 ? joined.session_start - state.last_update_time : 0;
  bucketizer_.encode(dt, row.row(0).subspan(fw, tb));
  row.row(0)[fw + tb] = joined.access ? 1.0f : 0.0f;

  scorer.update(state.state, row);
  state.last_update_time = joined.session_start;
  state.updates += 1;
  store_->put(joined.user_id, state);
  state_updates_.fetch_add(1, std::memory_order_relaxed);
  model_flops_.fetch_add(net.update_flops(), std::memory_order_relaxed);
}

void RnnPolicy::on_session_complete(const JoinedSession& joined) {
  std::visit([&](const auto& scorer) { complete_with(scorer, joined); },
             scorer_);
}

ServingCostSummary RnnPolicy::cost_summary() const {
  ServingCostSummary summary;
  summary.predictions = predictions_.load(std::memory_order_relaxed);
  summary.state_updates = state_updates_.load(std::memory_order_relaxed);
  summary.model_flops = model_flops_.load(std::memory_order_relaxed);
  summary.kv = store_->store().stats();
  summary.storage_bytes = store_->store().value_bytes();
  summary.live_keys = store_->store().size();
  return summary;
}

// -------------------------------------------------------------- GbdtPolicy

GbdtPolicy::GbdtPolicy(const models::GbdtModel& model,
                       const features::FeaturePipeline& pipeline,
                       AggregationService& aggregation)
    : model_(&model),
      pipeline_(&pipeline),
      aggregation_(&aggregation),
      dense_(pipeline.dimension(), 0.0f),
      walk_cost_(static_cast<std::size_t>(
          model.booster().mean_tree_depth() *
          static_cast<double>(model.booster().num_trees()))),
      collector_(collect_ledger(name(), predictions_, state_updates_,
                                model_flops_)) {}

double GbdtPolicy::score_session(std::uint64_t user_id, std::int64_t t,
                                 std::span<const std::uint32_t> context) {
  aggregation_->serve_features(user_id, t, context, row_);
  std::fill(dense_.begin(), dense_.end(), 0.0f);
  for (const auto& [col, value] : row_) dense_[col] = value;
  const double p = model_->predict_row(dense_);
  predictions_.fetch_add(1, std::memory_order_relaxed);
  model_flops_.fetch_add(walk_cost_, std::memory_order_relaxed);
  return p;
}

void GbdtPolicy::on_session_complete(const JoinedSession& joined) {
  data::Session session;
  session.timestamp = joined.session_start;
  session.context = joined.context;
  session.access = joined.access ? 1 : 0;
  aggregation_->apply_session(joined.user_id, session);
  state_updates_.fetch_add(1, std::memory_order_relaxed);
}

ServingCostSummary GbdtPolicy::cost_summary() const {
  ServingCostSummary summary;
  summary.predictions = predictions_.load(std::memory_order_relaxed);
  summary.state_updates = state_updates_.load(std::memory_order_relaxed);
  summary.model_flops = model_flops_.load(std::memory_order_relaxed);
  summary.kv = aggregation_->kv_stats();
  summary.storage_bytes = aggregation_->storage_bytes();
  summary.live_keys = aggregation_->total_live_keys();
  return summary;
}

// ------------------------------------------------------------ OnlineMetrics

void OnlineMetrics::record(std::int64_t t, double score, bool prefetched,
                           bool access) {
  const auto day = static_cast<std::size_t>(
      std::max<std::int64_t>(0, (t - start_time_) / 86400));
  if (day >= daily_scores_.size()) {
    daily_scores_.resize(day + 1);
    daily_labels_.resize(day + 1);
  }
  daily_scores_[day].push_back(score);
  daily_labels_[day].push_back(access ? 1.0f : 0.0f);
  ++total_predictions_;
  if (prefetched) ++total_prefetches_;
  if (access) {
    ++total_accesses_;
    if (prefetched) ++successful_;
  }
}

double OnlineMetrics::daily_pr_auc(std::size_t day) const {
  if (day >= daily_scores_.size() || daily_scores_[day].empty()) return 0.0;
  bool has_positive = false, has_negative = false;
  for (const float y : daily_labels_[day]) {
    (y > 0.5f ? has_positive : has_negative) = true;
  }
  if (!has_positive || !has_negative) return 0.0;
  return eval::pr_auc(daily_scores_[day], daily_labels_[day]);
}

std::vector<double> OnlineMetrics::daily_pr_auc_series() const {
  std::vector<double> series(days());
  for (std::size_t d = 0; d < days(); ++d) series[d] = daily_pr_auc(d);
  return series;
}

double OnlineMetrics::precision() const {
  return total_prefetches_ == 0
             ? 1.0
             : static_cast<double>(successful_) /
                   static_cast<double>(total_prefetches_);
}

double OnlineMetrics::recall() const {
  return total_accesses_ == 0
             ? 0.0
             : static_cast<double>(successful_) /
                   static_cast<double>(total_accesses_);
}

// -------------------------------------------------------- PrecomputeService

PrecomputeService::PrecomputeService(PrecomputePolicy& policy,
                                     double threshold,
                                     std::int64_t session_length,
                                     std::int64_t grace,
                                     std::int64_t metrics_start)
    : policy_(&policy),
      threshold_(threshold),
      horizon_(session_length + grace),
      joiner_(session_length, grace,
              [this](const JoinedSession& joined) {
                // Every joiner_ entry point is called with mutex_ held
                // (it is GUARDED_BY(mutex_)), but the analysis looks at
                // this lambda as its own function and cannot see that
                // acquisition — assert the invariant instead of weakening
                // handle_joined's requirement.
                mutex_.assert_held();
                handle_joined(joined);
              }),
      metrics_(metrics_start) {
  auto& registry = obs::MetricsRegistry::global();
  obs_decision_ns_ = &registry.histogram(
      "pp_serving_stage_ns",
      {{"stage", "decision_joiner"}, {"policy", policy.name()}});
  obs_prefetches_ = &registry.counter(
      "pp_serving_decisions",
      {{"policy", policy.name()}, {"decision", "prefetch"}});
  obs_skips_ = &registry.counter(
      "pp_serving_decisions", {{"policy", policy.name()}, {"decision", "skip"}});
  collector_ = registry.collect(
      {{"policy", policy.name()}}, [this](const obs::Emit& emit) {
        JoinerStats j;
        std::size_t predictions = 0, prefetches = 0, successful = 0,
                    accesses = 0;
        {
          MutexLock guard(mutex_);
          j = joiner_.stats();
          predictions = metrics_.predictions();
          prefetches = metrics_.prefetches();
          successful = metrics_.successful_prefetches();
          accesses = metrics_.accesses();
        }
        emit("pp_joiner_contexts", j.contexts);
        emit("pp_joiner_accesses", j.accesses);
        emit("pp_joiner_joined", j.joined);
        emit("pp_joiner_duplicate_contexts", j.duplicate_contexts);
        emit("pp_joiner_duplicate_accesses", j.duplicate_accesses);
        emit("pp_joiner_orphan_accesses", j.orphan_accesses);
        emit("pp_joiner_orphan_drops", j.orphan_drops);
        emit("pp_joiner_late_accesses", j.late_accesses);
        emit("pp_joiner_clock_rewinds", j.clock_rewinds);
        emit("pp_service_predictions", predictions);
        emit("pp_service_prefetches", prefetches);
        emit("pp_service_successful_prefetches", successful);
        emit("pp_service_accesses", accesses);
      });
}

void PrecomputeService::handle_joined(const JoinedSession& joined) {
  metrics_.record(joined.session_start, joined.score, joined.prefetched,
                  joined.access);
  policy_->on_session_complete(joined);
  // Joiner→learner feed: the listener sees the session after the state
  // update, still under the service mutex.
  if (completion_listener_) completion_listener_(joined);
}

void PrecomputeService::on_events(std::span<const StreamEvent> events,
                                  std::span<bool> decisions) {
  if (!decisions.empty() && decisions.size() != events.size()) {
    throw std::invalid_argument(
        "PrecomputeService::on_events: decisions must be empty or match "
        "events in size");
  }
  MutexLock guard(mutex_);

  // Non-decreasing t, stable within a timestamp: advancing only to the
  // earliest t would score later contexts against hidden states missing
  // every update a one-at-a-time replay fires in between. Sorted input
  // (every one-event call, every merged ingest slice) skips the sort,
  // which would take a heap buffer even for one element.
  order_.resize(events.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  const auto by_time = [events](std::size_t a, std::size_t b) {
    return events[a].t < events[b].t;
  };
  if (!std::is_sorted(order_.begin(), order_.end(), by_time)) {
    std::stable_sort(order_.begin(), order_.end(), by_time);
  }

  for (std::size_t begin = 0; begin < order_.size();) {
    const StreamEvent& first = events[order_[begin]];
    if (first.kind != EventKind::kContext) {
      // An access ahead of the call's first context: no group, no clock.
      joiner_.on_access(first.session_id, first.t);
      ++begin;
      continue;
    }
    // Model hot-swaps are observed between snapshot groups: the pin covers
    // this group's timer-driven completions and its scoring, so a
    // concurrent publish can never mix versions inside one group. The
    // SerialSection claims the policy's begin-batch contract: this thread
    // holds the service mutex, so nothing scores concurrently.
    {
      SerialSection serial(policy_->serial_token());
      policy_->begin_batch();
    }
    // Fire due timers first: hidden updates become visible exactly delta
    // after their session start, matching the offline lag-δ semantics.
    joiner_.advance_to(first.t);
    // The group extends while no timer can fire before the next context:
    // neither a pending timer (all now strictly after t) nor the earliest
    // one this group registers (t + horizon). Accesses ride along.
    std::int64_t bound = horizon_ > 0
                             ? first.t + horizon_
                             : std::numeric_limits<std::int64_t>::min();
    if (const auto fire = joiner_.next_timer(); fire.has_value()) {
      bound = std::min(bound, *fire);
    }
    // Only contexts that open a session are scored. Classifying them here,
    // before any of the group's events is fed, sees what the joiner will:
    // no timer fires inside the group, an access ahead of its context
    // leaves a slot without one, and a session's earlier delivery in this
    // group is found in group_.
    group_.clear();
    picks_.clear();
    std::size_t end = begin;
    for (; end < order_.size(); ++end) {
      const StreamEvent& ev = events[order_[end]];
      if (ev.kind != EventKind::kContext) continue;
      if (end > begin && ev.t >= bound) break;
      if (const auto known = joiner_.duplicate_decision(ev.session_id)) {
        picks_.push_back({Pick::kKnown, *known});
        continue;
      }
      const auto first =
          std::find_if(group_.begin(), group_.end(),
                       [&ev](const SessionStart& s) {
                         return s.session_id == ev.session_id;
                       });
      picks_.push_back({static_cast<std::size_t>(first - group_.begin())});
      if (first == group_.end()) {
        group_.push_back(
            SessionStart{ev.session_id, ev.user_id, ev.t, ev.context});
      }
    }

    const std::vector<double> scores = group_.empty()
                                           ? std::vector<double>{}
                                           : policy_->score_sessions(group_);
    {
      // decision_joiner stage: thresholding + the joiner feed of one
      // snapshot group's events, in order.
      obs::ScopedTimer stage_timer(obs::sample_tick() ? obs_decision_ns_
                                                      : nullptr);
      std::size_t c = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const StreamEvent& ev = events[order_[i]];
        if (ev.kind != EventKind::kContext) {
          joiner_.on_access(ev.session_id, ev.t);
          continue;
        }
        const Pick& pick = picks_[c++];
        const bool known = pick.start == Pick::kKnown;
        const double score = known ? 0.0 : scores[pick.start];
        const bool prefetch = known ? pick.decision : score >= threshold_;
        if (!decisions.empty()) decisions[order_[i]] = prefetch;
        joiner_.on_context(ev.session_id, ev.user_id, ev.t, ev.context, score,
                           prefetch);
      }
    }
    const std::size_t prefetched = static_cast<std::size_t>(
        std::count_if(scores.begin(), scores.end(),
                      [this](double score) { return score >= threshold_; }));
    obs_prefetches_->inc(prefetched);
    obs_skips_->inc(group_.size() - prefetched);
    begin = end;
  }
}

bool PrecomputeService::on_session_start(
    std::uint64_t session_id, std::uint64_t user_id, std::int64_t t,
    const std::array<std::uint32_t, data::kMaxContextFields>& context) {
  const StreamEvent ev{.kind = EventKind::kContext,
                       .session_id = session_id,
                       .user_id = user_id,
                       .t = t,
                       .context = context};
  bool prefetch = false;
  on_events({&ev, 1}, {&prefetch, 1});
  return prefetch;
}

std::vector<bool> PrecomputeService::on_session_starts(
    std::span<const SessionStart> sessions) {
  std::vector<StreamEvent> events;
  events.reserve(sessions.size());
  for (const SessionStart& s : sessions) {
    events.push_back({.kind = EventKind::kContext,
                      .session_id = s.session_id,
                      .user_id = s.user_id,
                      .t = s.t,
                      .context = s.context});
  }
  const auto decisions = std::make_unique<bool[]>(sessions.size());
  on_events(events, {decisions.get(), sessions.size()});
  return std::vector<bool>(decisions.get(), decisions.get() + sessions.size());
}

void PrecomputeService::on_access(std::uint64_t session_id, std::int64_t t) {
  const StreamEvent ev{
      .kind = EventKind::kAccess, .session_id = session_id, .t = t};
  on_events({&ev, 1});
}

void PrecomputeService::advance_to(std::int64_t t) {
  MutexLock guard(mutex_);
  {
    SerialSection serial(policy_->serial_token());
    policy_->begin_batch();
  }
  joiner_.advance_to(t);
}

void PrecomputeService::flush() {
  MutexLock guard(mutex_);
  {
    SerialSection serial(policy_->serial_token());
    policy_->begin_batch();
  }
  joiner_.flush();
}

void PrecomputeService::set_completion_listener(
    std::function<void(const JoinedSession&)> listener) {
  MutexLock guard(mutex_);
  completion_listener_ = std::move(listener);
}

}  // namespace pp::serving
