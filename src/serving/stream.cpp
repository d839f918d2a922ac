#include "serving/stream.hpp"

#include <limits>

namespace pp::serving {

SessionJoiner::SessionJoiner(std::int64_t window, std::int64_t grace,
                             Callback on_joined, std::size_t fired_capacity)
    : window_(window),
      grace_(grace),
      on_joined_(std::move(on_joined)),
      fired_capacity_(fired_capacity) {}

void SessionJoiner::on_context(
    std::uint64_t session_id, std::uint64_t user_id,
    std::int64_t session_start,
    const std::array<std::uint32_t, data::kMaxContextFields>& context,
    double score, bool prefetched) {
  ++stats_.contexts;
  if (fired_.count(session_id) > 0) {
    ++stats_.duplicate_contexts;  // redelivered after its session fired
    return;
  }
  auto [it, inserted] = pending_.try_emplace(session_id);
  if (it->second.has_context) {
    ++stats_.duplicate_contexts;
    return;
  }
  it->second.has_context = true;
  it->second.session.session_id = session_id;
  it->second.session.user_id = user_id;
  it->second.session.session_start = session_start;
  it->second.session.context = context;
  it->second.session.score = score;
  it->second.session.prefetched = prefetched;
  timers_.emplace(session_start + window_ + grace_,
                  Timer{session_id, /*orphan=*/false});
}

void SessionJoiner::on_access(std::uint64_t session_id,
                              std::int64_t event_time) {
  ++stats_.accesses;
  const auto it = pending_.find(session_id);
  if (it == pending_.end()) {
    if (fired_.count(session_id) > 0) {
      ++stats_.late_accesses;
    } else {
      // Access before its context: hold it in a context-less slot with an
      // expiry timer one window out — if the context never arrives the
      // slot is dropped then (orphan_drops), so a long run cannot
      // accumulate dead slots.
      auto [slot, inserted] = pending_.try_emplace(session_id);
      if (inserted) {
        slot->second.session.session_id = session_id;
        slot->second.session.access = true;
        timers_.emplace(event_time + window_ + grace_,
                        Timer{session_id, /*orphan=*/true});
        ++stats_.orphan_accesses;
      } else {
        ++stats_.duplicate_accesses;
      }
    }
    return;
  }
  if (it->second.session.access) {
    ++stats_.duplicate_accesses;
    return;
  }
  it->second.session.access = true;
}

std::optional<bool> SessionJoiner::duplicate_decision(
    std::uint64_t session_id) const {
  if (fired_.count(session_id) > 0) return false;
  const auto it = pending_.find(session_id);
  if (it == pending_.end() || !it->second.has_context) return std::nullopt;
  return it->second.session.prefetched;
}

void SessionJoiner::fire(std::int64_t due) {
  while (!timers_.empty() && timers_.begin()->first <= due) {
    const auto [fire_time, timer] = *timers_.begin();
    timers_.erase(timers_.begin());
    const auto it = pending_.find(timer.session_id);
    if (it == pending_.end()) continue;  // already fired or expired
    if (timer.orphan) {
      // Expiry timer for an access-before-context slot. If the context
      // showed up meanwhile, the join timer registered by on_context owns
      // the slot — never fire or drop it early here.
      if (!it->second.has_context) {
        pending_.erase(it);
        ++stats_.orphan_drops;
      }
      continue;
    }
    JoinedSession joined = it->second.session;
    joined.completed_at = fire_time;
    pending_.erase(it);
    remember_fired(timer.session_id, fire_time);
    ++stats_.joined;
    if (on_joined_) on_joined_(joined);
  }
}

void SessionJoiner::remember_fired(std::uint64_t session_id,
                                   std::int64_t fire_time) {
  const auto [it, inserted] = fired_.emplace(session_id, fire_time);
  if (!inserted) return;
  fired_order_.push_back(session_id);
  // Bound the fired-session memory (late-access classification window) by
  // evicting only the oldest entries; a wholesale clear would misclassify
  // every late access right after the purge as an orphan and grow dead
  // pending slots from them.
  while (fired_order_.size() > fired_capacity_) {
    fired_.erase(fired_order_.front());
    fired_order_.pop_front();
  }
}

void SessionJoiner::advance_to(std::int64_t now) {
  if (now < clock_) {
    // Out-of-order delivery (e.g. a lagging bus lane) must not rewind the
    // event-time clock: count it and hold at the high-water mark. fire() is
    // idempotent for times already reached, so clamping is a no-op replay.
    ++stats_.clock_rewinds;
    now = clock_;
  }
  clock_ = now;
  fire(now);
}

void SessionJoiner::flush() {
  fire(std::numeric_limits<std::int64_t>::max());
  pending_.clear();
}

}  // namespace pp::serving
