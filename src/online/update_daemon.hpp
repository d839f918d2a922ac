// OnlineUpdateDaemon — the asynchronous half of the serve→learn→serve
// loop. PR 4's OnlineLearner runs every run_update_round() on whichever
// thread calls it; under production traffic that thread is a serving
// caller, and a multi-epoch fit on the serving path is exactly the stall
// the §10 architecture exists to avoid. The daemon owns one dedicated
// background thread and is the only caller of run_update_round(), so no
// round ever executes on a serving thread:
//
//   serving threads ──observe()──▶ SessionReplayBuffer
//                                        │ (observed count)
//        daemon thread ── poll ── trigger check ── run_update_round()
//                                        │               │
//                  checkpoint cadence ◀──┘        ModelRegistry publish
//
// Rounds are rate-limited by two triggers that must BOTH hold:
//  * min_round_interval — wall-clock floor between round starts, so a
//    slow fit cannot queue up back-to-back retrains, and
//  * min_new_sessions — the buffer must have observed at least this many
//    new sessions since the last round, so an idle cohort never burns CPU
//    refitting on identical data.
// drive_round() lets a control plane (tests, deterministic replays) force
// a round immediately — it still executes on the daemon thread; the
// caller just blocks for the report. Round-origin accounting is the
// daemon's stats ledger: every learner round this daemon drives increments
// rounds_driven, so `learner.stats().rounds == daemon.stats().rounds_driven`
// proves zero caller-thread rounds ever happened.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "online/online_learner.hpp"
#include "util/mutex.hpp"
#include "util/thread.hpp"

namespace pp::online {

struct OnlineUpdateDaemonConfig {
  /// Wall-clock floor between two round *starts* (rate limit).
  std::chrono::milliseconds min_round_interval{1000};
  /// Observed-session delta (vs the last round) required to trigger.
  std::size_t min_new_sessions = 1;
  /// How often the daemon wakes to evaluate the triggers.
  std::chrono::milliseconds poll_interval{20};
  /// Save the learner state to checkpoint_path after every N rounds that
  /// actually ran (report.ran); 0 disables checkpointing.
  std::size_t checkpoint_every_rounds = 0;
  std::string checkpoint_path;
};

struct OnlineUpdateDaemonStats {
  /// Trigger evaluations (poll wakeups + drive requests).
  std::size_t wakeups = 0;
  /// run_update_round() calls made from the daemon thread — the
  /// round-origin ledger. Equal to the learner's rounds counter iff no
  /// other thread ever drove a round.
  std::size_t rounds_driven = 0;
  /// Rounds whose report.ran was true (trained + gated).
  std::size_t rounds_ran = 0;
  /// Rounds that threw out of run_update_round (caught — an exploding
  /// learner must not take down the serving process; the round reports
  /// ran == false).
  std::size_t round_errors = 0;
  std::size_t publishes = 0;
  std::size_t rollbacks = 0;
  /// Wakeups where the session trigger held but the interval floor didn't.
  std::size_t deferred_interval = 0;
  /// Wakeups where the interval floor held but too few new sessions.
  std::size_t deferred_sessions = 0;
  std::size_t checkpoints = 0;
  std::size_t checkpoint_failures = 0;
};

/// Owns the background update thread for one OnlineLearner. Thread-safe;
/// start()/stop() may be cycled, stop() (and the destructor) joins the
/// thread after the in-flight round, if any, completes — never mid-round.
class OnlineUpdateDaemon {
 public:
  OnlineUpdateDaemon(OnlineLearner& learner, OnlineUpdateDaemonConfig config);
  /// Stops and joins; a round in flight finishes first.
  ~OnlineUpdateDaemon();

  OnlineUpdateDaemon(const OnlineUpdateDaemon&) = delete;
  OnlineUpdateDaemon& operator=(const OnlineUpdateDaemon&) = delete;

  /// Spawns the background thread. Throws std::logic_error if already
  /// running.
  void start();
  /// Atomic check-and-start: returns false (doing nothing) when already
  /// running. The race-free form of `if (!running()) start()`.
  bool try_start();
  /// Requests shutdown and joins the thread. Idempotent; pending
  /// drive_round() callers are woken with an error.
  void stop();
  bool running() const;

  /// Forces one round *on the daemon thread*, bypassing both triggers,
  /// and blocks until it completes; returns that round's report. The
  /// round still counts against the rate-limit window of subsequent
  /// auto-triggered rounds. Throws std::logic_error when the daemon is
  /// not running (or stops while waiting). Multiple concurrent callers
  /// each get their own round, executed in request order.
  OnlineUpdateReport drive_round();

  OnlineUpdateDaemonStats stats() const;
  const OnlineLearner& learner() const { return *learner_; }

 private:
  /// Everything one round produced while the daemon mutex was released;
  /// commit_round() folds it into the stats ledger once the lock is back.
  struct RoundOutcome {
    OnlineUpdateReport report;
    bool round_error = false;
    bool wrote_checkpoint = false;
    bool checkpoint_failed = false;
  };

  void thread_main() PP_EXCLUDES(mutex_);
  /// Stamps the rate-limit window and the round-origin ledger at round
  /// start — the part that must happen before the mutex is released, so a
  /// concurrent stats() reader never sees a round in flight uncounted.
  void note_round_start() PP_REQUIRES(mutex_);
  /// The round body: learner round + checkpoint cadence. Runs with the
  /// daemon mutex released (the fit can take seconds; every daemon API
  /// would stall behind it otherwise) — it must touch nothing guarded.
  RoundOutcome run_round_outside_lock() PP_EXCLUDES(mutex_);
  /// Folds one outcome into stats_ after the mutex is re-acquired.
  void commit_round(const RoundOutcome& outcome) PP_REQUIRES(mutex_);

  OnlineLearner* learner_;
  OnlineUpdateDaemonConfig config_;

  /// Serializes start()/stop() end to end (including the out-of-lock
  /// join): without it a start() racing a stop() could clear
  /// stop_requested_ before the old thread observed it, leaving two
  /// daemon threads alive. Never held by the daemon thread itself, and
  /// always acquired before mutex_ (the beta analysis checks the order).
  Mutex lifecycle_mutex_ PP_ACQUIRED_BEFORE(mutex_);
  mutable Mutex mutex_;
  CondVar cv_;        // wakes the daemon thread
  CondVar drive_cv_;  // wakes drive_round() waiters
  Thread thread_ PP_GUARDED_BY(mutex_);
  bool running_ PP_GUARDED_BY(mutex_) = false;
  bool stop_requested_ PP_GUARDED_BY(mutex_) = false;
  /// drive_round tickets: callers take the next request number; the
  /// daemon completes them in order and parks each report until its
  /// caller collects it. drive_executing_ marks the ticket whose round is
  /// currently in flight: its caller keeps waiting across a concurrent
  /// stop() (the round finishes and its report is delivered).
  /// drive_abandoned_ tombstones every ticket pending at a stop(): their
  /// callers throw (even if a start() races in before they wake), and a
  /// restarted daemon skips them instead of running rounds nobody wants.
  std::uint64_t drive_requested_ PP_GUARDED_BY(mutex_) = 0;
  std::uint64_t drive_completed_ PP_GUARDED_BY(mutex_) = 0;
  std::uint64_t drive_executing_ PP_GUARDED_BY(mutex_) = 0;  // 0 = none
  std::uint64_t drive_abandoned_ PP_GUARDED_BY(mutex_) = 0;  // never run
  std::unordered_map<std::uint64_t, OnlineUpdateReport> drive_reports_
      PP_GUARDED_BY(mutex_);

  /// Rate-limit window, stamped by note_round_start() under mutex_ (so
  /// stats readers and the trigger check agree on it).
  std::chrono::steady_clock::time_point last_round_start_
      PP_GUARDED_BY(mutex_){};
  bool any_round_ PP_GUARDED_BY(mutex_) = false;
  std::size_t observed_at_last_round_ PP_GUARDED_BY(mutex_) = 0;
  /// Checkpoint cadence counter. Daemon-thread-only by construction (only
  /// run_round_outside_lock touches it, and exactly one daemon thread
  /// exists at a time — the lifecycle mutex enforces that), so it is
  /// deliberately not mutex_-guarded: the round body runs unlocked.
  std::size_t rounds_since_checkpoint_ = 0;

  OnlineUpdateDaemonStats stats_ PP_GUARDED_BY(mutex_);
  obs::Collector collector_;  // pp_daemon_<field>, labeled cohort
};

}  // namespace pp::online
