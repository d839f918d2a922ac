#include "online/tenant.hpp"

#include <stdexcept>
#include <utility>

#include "storage/durable_io.hpp"

namespace pp::online {

namespace {

/// Every cross-field check, before any cohort state exists. Throws
/// std::invalid_argument with the tenant id in the message.
void validate_spec(const TenantSpec& spec) {
  const std::string who = "register_tenant(" + spec.id + "): ";
  if (spec.id.empty()) {
    throw std::invalid_argument("register_tenant: empty tenant id");
  }
  if (spec.model == nullptr) {
    throw std::invalid_argument(who + "null model");
  }
  if (spec.dataset_meta == nullptr) {
    throw std::invalid_argument(who + "null dataset_meta");
  }
  if (spec.window < 0 || spec.grace < 0) {
    throw std::invalid_argument(who + "window/grace must be >= 0");
  }
  if (spec.window == 0 && spec.dataset_meta->session_length <= 0) {
    throw std::invalid_argument(
        who + "no window given and dataset_meta has no session_length");
  }
  try {
    storage::validate(spec.backend);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(who + e.what());
  }
  if (spec.precision == serving::ScorePrecision::kInt8) {
    // Mirror the RnnPolicy/registry int8 preconditions so they fail here,
    // with the tenant named, instead of inside the policy constructor.
    if (spec.codec != serving::StateCodec::kInt8) {
      throw std::invalid_argument(
          who + "int8 precision requires the kInt8 state codec");
    }
    if (!spec.cohort.quantize_replicas_for(*spec.model)) {
      throw std::invalid_argument(
          who +
          "int8 precision requires int8 replicas: set "
          "cohort.quantize_replicas (or gate_int8, or pass a model with "
          "quantized serving enabled)");
    }
  }
}

}  // namespace

ServingStack::~ServingStack() { stop_daemon(); }

void ServingStack::start_daemon() {
  if (daemon_started_) return;
  // try_start: idempotent against the daemon having been started directly
  // through the cohort (e.g. CohortRegistryMap::start_daemons()).
  cohort_->daemon().try_start();
  daemon_started_ = true;
}

void ServingStack::stop_daemon() {
  if (!daemon_started_) return;
  cohort_->daemon().stop();
  daemon_started_ = false;
}

void ServingStack::flush_durable() {
  if (journal_ != nullptr) journal_->flush();
  if (auto* durable = dynamic_cast<storage::DurableKvStore*>(kv_.get());
      durable != nullptr) {
    durable->flush();
  }
}

ServingStack& CohortRegistryMap::register_tenant(const TenantSpec& spec) {
  validate_spec(spec);
  {
    // Duplicate check up front: create() would also throw, but only after
    // the KV backend (possibly a durable open/recovery) was built.
    MutexLock lock(mutex_);
    if (cohorts_.find(spec.id) != cohorts_.end()) {
      throw std::invalid_argument("register_tenant(" + spec.id +
                                  "): duplicate tenant id");
    }
  }

  // Build the backend before the cohort so a failed open leaves the map
  // untouched.
  auto stack = std::unique_ptr<ServingStack>(new ServingStack());
  stack->id_ = spec.id;
  stack->backend_kind_ = spec.backend.kind;
  stack->kv_ = storage::make_kv_store(spec.backend);
  stack->hidden_store_ =
      std::make_unique<serving::HiddenStateStore>(*stack->kv_, spec.codec);

  Cohort& cohort =
      create(spec.id, spec.model, *spec.dataset_meta, spec.cohort);
  stack->cohort_ = &cohort;

  if (!spec.learner_checkpoint.empty()) {
    // Resume the incremental-training state (shadow weights + Adam moments
    // + step count) exactly where a killed process left it; a missing file
    // is a fresh start.
    stack->resumed_from_checkpoint_ =
        cohort.learner().load_checkpoint(spec.learner_checkpoint);
  }
  if (!spec.replay_journal_dir.empty()) {
    // Opening the journal replays any existing stream through observe(),
    // rebuilding the replay buffer (and its reservoir RNG cursor)
    // bit-identically — so this must run after the checkpoint load and
    // before any live capture.
    storage::ensure_dir(spec.replay_journal_dir);
    storage::ReplayJournalConfig journal_config;
    journal_config.dir = spec.replay_journal_dir;
    OnlineLearner* feed = &cohort.learner();
    stack->journal_ = std::make_unique<storage::ReplayJournal>(
        journal_config,
        [feed](std::uint64_t user_id, std::int64_t session_start,
               const std::array<std::uint32_t, data::kMaxContextFields>&
                   context,
               bool access) {
          serving::JoinedSession joined;
          joined.user_id = user_id;
          joined.session_start = session_start;
          joined.context = context;
          joined.access = access;
          feed->observe(joined);
        });
    stack->replayed_journal_sessions_ = stack->journal_->stats().replayed;
  }

  stack->policy_ = std::make_unique<serving::RnnPolicy>(
      cohort.registry(), *stack->hidden_store_, spec.precision);
  const std::int64_t window =
      spec.window > 0 ? spec.window : spec.dataset_meta->session_length;
  const std::int64_t metrics_start =
      spec.metrics_start == TenantSpec::kUseDatasetStart
          ? spec.dataset_meta->start_time
          : spec.metrics_start;
  stack->service_ = std::make_unique<serving::PrecomputeService>(
      *stack->policy_, spec.threshold, window, spec.grace, metrics_start);

  if (spec.capture) {
    Cohort* capture_cohort = &cohort;
    storage::ReplayJournal* journal = stack->journal_.get();
    stack->service_->set_completion_listener(
        [capture_cohort, journal](const serving::JoinedSession& joined) {
          if (journal != nullptr) {
            // Journal first: a kill between the two re-observes the
            // session on reopen instead of losing it.
            journal->append(joined.user_id, joined.session_start,
                            joined.context, joined.access);
          }
          capture_cohort->observe(joined);
        });
  }

  if (spec.start_daemon) stack->start_daemon();

  MutexLock lock(mutex_);
  const auto [it, inserted] = stacks_.emplace(spec.id, std::move(stack));
  if (!inserted) {
    // Unreachable: the cohort insert above already holds the id.
    throw std::logic_error("register_tenant: stack id collision");
  }
  return *it->second;
}

ServingStack* CohortRegistryMap::find_stack(std::string_view id) {
  MutexLock lock(mutex_);
  const auto it = stacks_.find(id);
  return it == stacks_.end() ? nullptr : it->second.get();
}

}  // namespace pp::online
