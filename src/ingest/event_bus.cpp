#include "ingest/event_bus.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace pp::ingest {

EventBus::EventBus(const EventBusConfig& config) : config_(config) {
  if (config_.num_lanes == 0) {
    throw std::invalid_argument("EventBus: num_lanes must be > 0");
  }
  if (config_.lane_capacity == 0) {
    throw std::invalid_argument("EventBus: lane_capacity must be > 0");
  }
  lanes_.reserve(config_.num_lanes);
  for (std::size_t i = 0; i < config_.num_lanes; ++i) {
    Lane& lane = *lanes_.emplace_back(std::make_unique<Lane>());
    lane.collector = obs::MetricsRegistry::global().collect(
        {{"lane", std::to_string(i)}}, [&lane](const obs::Emit& emit) {
          LaneStats s;
          std::size_t depth = 0;
          {
            MutexLock lock(lane.mu);
            s = lane.stats;
            depth = lane.q.size();
          }
          emit("pp_ingest_published", s.published);
          emit("pp_ingest_dropped", s.dropped);
          emit("pp_ingest_blocked", s.blocked);
          emit("pp_ingest_closed_rejects", s.closed_rejects);
          emit("pp_ingest_max_depth", s.max_depth);
          emit("pp_ingest_queue_depth", depth);
        });
  }
}

bool EventBus::publish(std::size_t lane_index,
                       std::vector<std::uint8_t> chunk) {
  Lane& lane = *lanes_.at(lane_index);
  bool accepted = false;
  {
    MutexLock lock(lane.mu);
    if (config_.backpressure == BackpressurePolicy::kBlock) {
      bool waited = false;
      while (!lane.closed && lane.q.size() >= config_.lane_capacity) {
        waited = true;
        lane.not_full.wait(lane.mu);
      }
      if (waited) ++lane.stats.blocked;
    }
    if (lane.closed) {
      ++lane.stats.closed_rejects;
    } else if (lane.q.size() >= config_.lane_capacity) {
      // kDropNewest: the queue is full, the newest chunk loses.
      ++lane.stats.dropped;
    } else {
      lane.q.push_back(std::move(chunk));
      ++lane.stats.published;
      if (lane.q.size() > lane.stats.max_depth) {
        lane.stats.max_depth = lane.q.size();
      }
      accepted = true;
    }
  }
  bump_activity();
  return accepted;
}

void EventBus::close(std::size_t lane_index) {
  Lane& lane = *lanes_.at(lane_index);
  {
    MutexLock lock(lane.mu);
    lane.closed = true;
  }
  // Blocked publishers must observe closed and give up waiting for space.
  lane.not_full.notify_all();
  bump_activity();
}

void EventBus::close_all() {
  for (std::size_t i = 0; i < lanes_.size(); ++i) close(i);
}

bool EventBus::drain(std::size_t lane_index,
                     std::vector<std::vector<std::uint8_t>>* out) {
  Lane& lane = *lanes_.at(lane_index);
  bool open;
  bool freed = false;
  {
    MutexLock lock(lane.mu);
    while (!lane.q.empty()) {
      out->push_back(std::move(lane.q.front()));
      lane.q.pop_front();
      freed = true;
    }
    open = !lane.closed;
  }
  if (freed) lane.not_full.notify_all();
  return open;
}

std::uint64_t EventBus::activity_epoch() const {
  MutexLock lock(activity_mutex_);
  return activity_;
}

void EventBus::wait_activity(std::uint64_t seen) {
  MutexLock lock(activity_mutex_);
  while (activity_ == seen) activity_cv_.wait(activity_mutex_);
}

void EventBus::bump_activity() {
  {
    MutexLock lock(activity_mutex_);
    ++activity_;
  }
  activity_cv_.notify_all();
}

LaneStats EventBus::lane_stats(std::size_t lane_index) const {
  const Lane& lane = *lanes_.at(lane_index);
  MutexLock lock(lane.mu);
  return lane.stats;
}

LaneStats EventBus::totals() const {
  LaneStats total;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const LaneStats s = lane_stats(i);
    total.published += s.published;
    total.dropped += s.dropped;
    total.blocked += s.blocked;
    total.closed_rejects += s.closed_rejects;
    if (s.max_depth > total.max_depth) total.max_depth = s.max_depth;
  }
  return total;
}

}  // namespace pp::ingest
