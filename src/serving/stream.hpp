// Session-ID keyed stream join (§9): context events and access events are
// "sent to a stream processing system similar to Apache Kafka, tagged by a
// unique session ID. Events are buffered by session ID, and after a timer
// corresponding to the session length fires, the context C_i and access
// flag A_i are computed."
//
// This implements exactly that: an event-time timer wheel joins each
// session's context with an optional access event; when the timer fires
// the joined record is delivered to the consumer (which updates the RNN
// hidden state or the aggregation counters). Failure tolerance: duplicate
// events are ignored — a context redelivered after its session fired
// included, as long as the session is still in the bounded fired-session
// memory (see SessionJoiner) — accesses arriving before their context are
// held for one window (then expired and counted — they cannot leak), and
// accesses arriving after the timer fired are dropped and counted.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

#include "data/dataset.hpp"

namespace pp::serving {

enum class EventKind : std::uint8_t {
  kContext = 1,
  kAccess = 2,
};

/// One event of the §9 stream: a context event at session start, or an
/// access event inside the session window. `seq` is a producer-assigned
/// globally unique sequence number, the deterministic tie-break when lanes
/// are merged: sorting by (t, seq) yields one total order regardless of
/// thread timing.
struct StreamEvent {
  EventKind kind = EventKind::kContext;
  std::uint64_t seq = 0;
  std::uint64_t session_id = 0;
  std::uint64_t user_id = 0;  // context events only
  std::int64_t t = 0;
  std::array<std::uint32_t, data::kMaxContextFields> context{};  // context

  friend bool operator==(const StreamEvent&, const StreamEvent&) = default;
};

struct JoinedSession {
  std::uint64_t session_id = 0;
  std::uint64_t user_id = 0;
  std::int64_t session_start = 0;
  std::array<std::uint32_t, data::kMaxContextFields> context{};
  bool access = false;
  /// Event time at which the join completed (timer fire).
  std::int64_t completed_at = 0;
  /// Score and decision given with the session's first context delivery.
  double score = 0;
  bool prefetched = false;
};

struct JoinerStats {
  std::size_t contexts = 0;
  std::size_t accesses = 0;
  std::size_t joined = 0;
  std::size_t duplicate_contexts = 0;
  std::size_t duplicate_accesses = 0;
  std::size_t orphan_accesses = 0;  // access with no context by fire time
  std::size_t orphan_drops = 0;     // orphan slots expired without a context
  std::size_t late_accesses = 0;    // access after the timer fired
  std::size_t clock_rewinds = 0;    // advance_to() calls with now < clock
};

class SessionJoiner {
 public:
  using Callback = std::function<void(const JoinedSession&)>;

  /// `window` is the session length; the timer fires at session_start +
  /// window + grace (grace models pipeline latency ε). `fired_capacity`
  /// bounds the fired-session memory that classifies redelivered contexts
  /// (duplicate_contexts) and late accesses: the oldest fired sessions are
  /// evicted FIFO once it is exceeded, so an event for a session more than
  /// `fired_capacity` joins old is treated as new (a context opens a new
  /// session, an access an orphan slot).
  SessionJoiner(std::int64_t window, std::int64_t grace, Callback on_joined,
                std::size_t fired_capacity = 100000);

  /// Context event at session start, with the score and decision it was
  /// given (handed back in the JoinedSession). A session ID whose context
  /// is already pending, or that is remembered as fired, is a duplicate:
  /// counted in duplicate_contexts and dropped, so the first delivery's
  /// record stands.
  void on_context(std::uint64_t session_id, std::uint64_t user_id,
                  std::int64_t session_start,
                  const std::array<std::uint32_t, data::kMaxContextFields>&
                      context,
                  double score = 0, bool prefetched = false);
  /// Access event within the session window.
  void on_access(std::uint64_t session_id, std::int64_t event_time);

  /// How on_context() would take a context for `session_id` now: nullopt
  /// when it opens a session, else it is a duplicate and this is the
  /// decision its session has — the first delivery's while the session is
  /// pending, false once it has fired.
  std::optional<bool> duplicate_decision(std::uint64_t session_id) const;

  /// Advances the event-time clock, firing every due timer in order. The
  /// clock is monotone: a `now` below the furthest point already reached
  /// (out-of-order bus delivery, a skewed producer) is counted in
  /// stats().clock_rewinds and clamped — event time never rewinds, and no
  /// timer can fire twice.
  void advance_to(std::int64_t now);

  /// Furthest event time advance_to() has reached.
  std::int64_t clock() const { return clock_; }
  /// Fires everything still buffered (end of replay).
  void flush();

  /// Fire time of the earliest pending timer (join or orphan expiry), or
  /// nullopt when idle. Events strictly before this time cannot observe
  /// any further state change from the wheel.
  std::optional<std::int64_t> next_timer() const {
    if (timers_.empty()) return std::nullopt;
    return timers_.begin()->first;
  }

  const JoinerStats& stats() const { return stats_; }
  std::size_t buffered() const { return pending_.size(); }

 private:
  struct Pending {
    JoinedSession session;
    bool has_context = false;
  };
  /// One timer-wheel entry. `orphan` timers expire an access-before-
  /// context slot whose context never arrived; join timers fire the
  /// completed session.
  struct Timer {
    std::uint64_t session_id = 0;
    bool orphan = false;
  };

  void fire(std::int64_t due);
  void remember_fired(std::uint64_t session_id, std::int64_t fire_time);

  std::int64_t window_;
  std::int64_t grace_;
  /// High-water mark of advance_to(); see clock().
  std::int64_t clock_ = std::numeric_limits<std::int64_t>::min();
  Callback on_joined_;
  std::size_t fired_capacity_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  /// Timers ordered by fire time.
  std::multimap<std::int64_t, Timer> timers_;
  /// Sessions already fired (to classify late accesses); bounded by
  /// fired_capacity_ with FIFO eviction (fired_order_ is the queue).
  std::unordered_map<std::uint64_t, std::int64_t> fired_;
  std::deque<std::uint64_t> fired_order_;
  JoinerStats stats_;
};

}  // namespace pp::serving
