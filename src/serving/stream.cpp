#include "serving/stream.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace pp::serving {

// Ring positions are 32-bit, so at most 2^32 - 1 sessions are remembered.
SessionJoiner::FiredSet::FiredSet(std::size_t capacity)
    : capacity_(std::min<std::size_t>(capacity, kEmpty)) {}

std::size_t SessionJoiner::FiredSet::home(std::uint64_t session_id) const {
  // Fibonacci hashing: the top bits of the product spread sequential ids.
  return static_cast<std::size_t>((session_id * 0x9E3779B97F4A7C15ull) >>
                                  shift_);
}

std::size_t SessionJoiner::FiredSet::find(std::uint64_t session_id) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = home(session_id);
  while (index_[slot] != kEmpty && ring_[index_[slot]] != session_id) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

bool SessionJoiner::FiredSet::contains(std::uint64_t session_id) const {
  return !index_.empty() && index_[find(session_id)] != kEmpty;
}

void SessionJoiner::FiredSet::erase(std::size_t slot) {
  // Backward-shift deletion: an entry further along the probe run moves
  // into the hole unless its home lies cyclically after the hole, so
  // every remaining entry stays reachable from its home without
  // tombstones.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t next = (slot + 1) & mask; index_[next] != kEmpty;
       next = (next + 1) & mask) {
    const std::size_t from_home = (next - home(ring_[index_[next]])) & mask;
    if (from_home >= ((next - slot) & mask)) {
      index_[slot] = index_[next];
      slot = next;
    }
  }
  index_[slot] = kEmpty;
}

void SessionJoiner::FiredSet::grow() {
  const std::size_t size =
      std::min(capacity_, std::max<std::size_t>(16, 2 * ring_.size()));
  std::vector<std::uint64_t> ring(size);
  for (std::size_t i = 0; i < count_; ++i) {
    ring[i] = ring_[(head_ + i) % ring_.size()];
  }
  ring_ = std::move(ring);
  head_ = 0;
  const std::size_t slots = std::bit_ceil(2 * size);
  index_.assign(slots, kEmpty);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  for (std::size_t i = 0; i < count_; ++i) {
    index_[find(ring_[i])] = static_cast<std::uint32_t>(i);
  }
}

void SessionJoiner::FiredSet::insert(std::uint64_t session_id) {
  if (capacity_ == 0 || contains(session_id)) return;
  if (count_ == ring_.size() && ring_.size() < capacity_) grow();
  std::size_t pos;
  if (count_ == ring_.size()) {
    // Full: evict only the oldest id. A wholesale clear would misclassify
    // every late access right after it as an orphan and grow dead pending
    // slots from them.
    erase(find(ring_[head_]));
    pos = head_;
    head_ = (head_ + 1) % ring_.size();
  } else {
    pos = (head_ + count_) % ring_.size();
    ++count_;
  }
  ring_[pos] = session_id;
  index_[find(session_id)] = static_cast<std::uint32_t>(pos);
}

SessionJoiner::SessionJoiner(std::int64_t window, std::int64_t grace,
                             Callback on_joined, std::size_t fired_capacity)
    : window_(window),
      grace_(grace),
      on_joined_(std::move(on_joined)),
      fired_(fired_capacity) {}

void SessionJoiner::on_context(
    std::uint64_t session_id, std::uint64_t user_id,
    std::int64_t session_start,
    const std::array<std::uint32_t, data::kMaxContextFields>& context,
    double score, bool prefetched) {
  ++stats_.contexts;
  if (fired_.contains(session_id)) {
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
    if (fired_.contains(session_id)) {
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
  if (fired_.contains(session_id)) return false;
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
    fired_.insert(timer.session_id);
    ++stats_.joined;
    if (on_joined_) on_joined_(joined);
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
