#include "online/update_daemon.hpp"

#include <stdexcept>

namespace pp::online {

OnlineUpdateDaemon::OnlineUpdateDaemon(OnlineLearner& learner,
                                       OnlineUpdateDaemonConfig config)
    : learner_(&learner), config_(config) {
  if (config_.poll_interval.count() <= 0) {
    throw std::invalid_argument("OnlineUpdateDaemon: poll_interval must be "
                                "positive");
  }
  if (config_.min_round_interval.count() < 0) {
    throw std::invalid_argument("OnlineUpdateDaemon: negative "
                                "min_round_interval");
  }
  if (config_.checkpoint_every_rounds > 0 && config_.checkpoint_path.empty()) {
    throw std::invalid_argument("OnlineUpdateDaemon: checkpoint cadence set "
                                "without a checkpoint_path");
  }
  collector_ = obs::MetricsRegistry::global().collect(
      {{"cohort", learner.cohort()}}, [this](const obs::Emit& emit) {
        const OnlineUpdateDaemonStats s = stats();
        emit("pp_daemon_wakeups", s.wakeups);
        emit("pp_daemon_rounds_driven", s.rounds_driven);
        emit("pp_daemon_rounds_ran", s.rounds_ran);
        emit("pp_daemon_round_errors", s.round_errors);
        emit("pp_daemon_publishes", s.publishes);
        emit("pp_daemon_rollbacks", s.rollbacks);
        emit("pp_daemon_deferred_interval", s.deferred_interval);
        emit("pp_daemon_deferred_sessions", s.deferred_sessions);
        emit("pp_daemon_checkpoints", s.checkpoints);
        emit("pp_daemon_checkpoint_failures", s.checkpoint_failures);
      });
}

OnlineUpdateDaemon::~OnlineUpdateDaemon() { stop(); }

void OnlineUpdateDaemon::start() {
  if (!try_start()) {
    throw std::logic_error("OnlineUpdateDaemon: already running");
  }
}

bool OnlineUpdateDaemon::try_start() {
  MutexLock lifecycle(lifecycle_mutex_);
  MutexLock lock(mutex_);
  if (running_) return false;
  stop_requested_ = false;
  running_ = true;
  thread_ = Thread(&OnlineUpdateDaemon::thread_main, this);
  return true;
}

void OnlineUpdateDaemon::stop() {
  // The lifecycle mutex covers the join too: a concurrent start() cannot
  // clear stop_requested_ while the old thread is still winding down.
  MutexLock lifecycle(lifecycle_mutex_);
  Thread to_join;
  {
    MutexLock lock(mutex_);
    if (!running_ && !thread_.joinable()) return;
    stop_requested_ = true;
    running_ = false;  // drive_round() callers fail fast from here on
    // Tombstone every pending ticket: its caller throws (even if a
    // start() races in before it wakes — the tombstone outlives the
    // restart), and the next daemon thread skips it rather than running
    // rounds nobody will collect. An in-flight ticket is exempt: its
    // round completes and its report is still delivered.
    drive_abandoned_ = drive_requested_;
    to_join = std::move(thread_);
    cv_.notify_all();
    drive_cv_.notify_all();
  }
  if (to_join.joinable()) to_join.join();
}

bool OnlineUpdateDaemon::running() const {
  MutexLock lock(mutex_);
  return running_;
}

OnlineUpdateReport OnlineUpdateDaemon::drive_round() {
  MutexLock lock(mutex_);
  if (!running_) {
    throw std::logic_error("OnlineUpdateDaemon: drive_round on a stopped "
                           "daemon");
  }
  const std::uint64_t ticket = ++drive_requested_;
  cv_.notify_all();
  // Keep waiting through a concurrent stop() while this ticket's round is
  // in flight: the daemon thread always finishes and parks the report, so
  // throwing here would tell the caller a round failed that actually ran
  // (and may have published). Never-started tickets are abandoned — the
  // tombstone check (not `!running_`) makes that stick even when a
  // racing start() flips running_ back on before this caller wakes.
  for (;;) {
    if (drive_reports_.count(ticket) != 0) break;
    if (drive_executing_ != ticket &&
        (ticket <= drive_abandoned_ || !running_)) {
      break;
    }
    drive_cv_.wait(mutex_);
  }
  const auto it = drive_reports_.find(ticket);
  if (it == drive_reports_.end()) {
    throw std::logic_error("OnlineUpdateDaemon: stopped before the driven "
                           "round started");
  }
  const OnlineUpdateReport report = it->second;
  drive_reports_.erase(it);
  return report;
}

OnlineUpdateDaemonStats OnlineUpdateDaemon::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void OnlineUpdateDaemon::note_round_start() {
  last_round_start_ = std::chrono::steady_clock::now();
  any_round_ = true;
  // The observed count is sampled at round start: sessions that arrive
  // while the round trains count toward the *next* trigger window.
  observed_at_last_round_ = learner_->stats().observed_sessions;
  ++stats_.rounds_driven;
}

OnlineUpdateDaemon::RoundOutcome OnlineUpdateDaemon::run_round_outside_lock() {
  RoundOutcome outcome;
  try {
    outcome.report = learner_->run_update_round();
  } catch (const std::exception&) {
    // A throwing learner must not terminate() the daemon thread (and with
    // it the serving process); the failure lands in the stats ledger and
    // the round reports ran == false.
    outcome.round_error = true;
  }

  if (outcome.report.ran) ++rounds_since_checkpoint_;
  if (config_.checkpoint_every_rounds > 0 &&
      rounds_since_checkpoint_ >= config_.checkpoint_every_rounds) {
    try {
      learner_->save_checkpoint(config_.checkpoint_path);
      rounds_since_checkpoint_ = 0;
      outcome.wrote_checkpoint = true;
    } catch (const std::exception&) {
      // An unwritable checkpoint must not kill the update loop; the
      // failure is surfaced through the stats ledger instead.
      outcome.checkpoint_failed = true;
    }
  }
  return outcome;
}

void OnlineUpdateDaemon::commit_round(const RoundOutcome& outcome) {
  if (outcome.report.ran) ++stats_.rounds_ran;
  if (outcome.round_error) ++stats_.round_errors;
  if (outcome.report.published) ++stats_.publishes;
  if (outcome.report.rolled_back) ++stats_.rollbacks;
  if (outcome.wrote_checkpoint) ++stats_.checkpoints;
  if (outcome.checkpoint_failed) ++stats_.checkpoint_failures;
}

void OnlineUpdateDaemon::thread_main() {
  MutexLock lock(mutex_);
  while (true) {
    // Poll-interval wait, woken early by stop() or a drive ticket. The
    // loop is explicit (not a predicate overload) so every read of the
    // guarded flags happens where the analysis can see the lock held.
    const auto deadline =
        std::chrono::steady_clock::now() + config_.poll_interval;
    while (!stop_requested_ && drive_completed_ >= drive_requested_) {
      if (cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) break;
    }
    if (stop_requested_) break;
    ++stats_.wakeups;

    if (drive_completed_ < drive_requested_) {
      // Serve exactly one ticket per iteration (stop is re-checked between
      // tickets). The round runs with the daemon mutex released;
      // drive_executing_ keeps this ticket's caller waiting through a
      // concurrent stop().
      const std::uint64_t ticket = drive_completed_ + 1;
      if (ticket <= drive_abandoned_) {
        // Orphaned by a stop() before it ever started: its caller throws
        // (or already threw) — don't run a round nobody will collect.
        drive_completed_ = ticket;
        drive_cv_.notify_all();
        continue;
      }
      drive_executing_ = ticket;
      note_round_start();
      lock.unlock();
      const RoundOutcome outcome = run_round_outside_lock();
      lock.lock();
      commit_round(outcome);
      drive_completed_ = ticket;
      drive_executing_ = 0;
      drive_reports_[ticket] = outcome.report;
      drive_cv_.notify_all();
      continue;
    }

    // Auto trigger: both the wall-clock floor and the new-session floor
    // must hold.
    const auto now = std::chrono::steady_clock::now();
    const bool interval_ok =
        !any_round_ || now - last_round_start_ >= config_.min_round_interval;
    const std::size_t observed = learner_->stats().observed_sessions;
    const bool sessions_ok =
        observed - observed_at_last_round_ >= config_.min_new_sessions;
    if (interval_ok && sessions_ok) {
      note_round_start();
      lock.unlock();
      const RoundOutcome outcome = run_round_outside_lock();
      lock.lock();
      commit_round(outcome);
    } else if (sessions_ok) {
      ++stats_.deferred_interval;
    } else if (interval_ok) {
      ++stats_.deferred_sessions;
    }
  }
  // Unfulfillable drive tickets (requested but not completed) wake their
  // callers, who observe running_ == false and throw.
  drive_cv_.notify_all();
}

}  // namespace pp::online
