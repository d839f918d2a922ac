// Multi-producer event bus: bounded per-lane byte queues with selectable
// backpressure. Producers publish framed event bytes (wire.hpp) onto their
// own lane; one consumer drains every lane, decodes, and merges (the lane =
// the paper's Kafka-style partition). The lane contract producers must keep
// is that event time is non-decreasing within a lane — the consumer's
// watermark merge (consumer.hpp) relies on it.
//
// Backpressure is a config choice per bus:
//   kBlock      — publish() waits for space (lossless; producers throttle to
//                 the consumer's rate).
//   kDropNewest — publish() on a full lane drops the chunk, counts it, and
//                 returns false (lossy; producers never stall).
//
// Locking: one pp::Mutex per lane (publishers on different lanes never
// contend), plus a bus-wide activity epoch the consumer sleeps on instead of
// polling. Each lane reports its LaneStats and queue depth to the global
// metrics registry as pp_ingest_<field>{lane}, summed across live buses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "util/mutex.hpp"

namespace pp::ingest {

enum class BackpressurePolicy {
  kBlock,
  kDropNewest,
};

struct EventBusConfig {
  std::size_t num_lanes = 4;
  /// Capacity per lane, counted in published chunks (a chunk is one
  /// publish() payload: one or more complete frames).
  std::size_t lane_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
};

struct LaneStats {
  std::uint64_t published = 0;  // chunks accepted
  std::uint64_t dropped = 0;    // chunks rejected (kDropNewest, full lane)
  std::uint64_t blocked = 0;    // publishes that had to wait (kBlock)
  std::uint64_t closed_rejects = 0;  // publishes after close()
  std::size_t max_depth = 0;    // high-water queued chunks
};

class EventBus {
 public:
  explicit EventBus(const EventBusConfig& config);

  std::size_t num_lanes() const { return lanes_.size(); }
  const EventBusConfig& config() const { return config_; }

  /// Producer side: enqueue one chunk of framed bytes onto `lane`. Returns
  /// false when the chunk was not accepted (lane closed, or full under
  /// kDropNewest).
  bool publish(std::size_t lane, std::vector<std::uint8_t> chunk);

  /// Marks a lane closed: future publishes are rejected, and once drained
  /// the consumer treats the lane as exhausted. Idempotent.
  void close(std::size_t lane);
  void close_all();

  /// Consumer side: moves every queued chunk of `lane` into `out`
  /// (appending). Returns false once the lane is closed — the final queued
  /// chunks are still handed over in that same call, so false means
  /// exhausted: after it returns, nothing more will ever arrive.
  bool drain(std::size_t lane, std::vector<std::vector<std::uint8_t>>* out);

  /// Bus-wide activity epoch, bumped on every publish/close. The consumer
  /// snapshots it, drains, and if nothing arrived sleeps in wait_activity
  /// until the epoch moves past the snapshot (no lost wakeups).
  std::uint64_t activity_epoch() const PP_EXCLUDES(activity_mutex_);
  void wait_activity(std::uint64_t seen) PP_EXCLUDES(activity_mutex_);

  LaneStats lane_stats(std::size_t lane) const;
  /// Field-wise sum over lanes (max_depth is the max across lanes).
  LaneStats totals() const;

 private:
  struct Lane {
    mutable Mutex mu;
    CondVar not_full;
    std::deque<std::vector<std::uint8_t>> q PP_GUARDED_BY(mu);
    bool closed PP_GUARDED_BY(mu) = false;
    LaneStats stats PP_GUARDED_BY(mu);
    obs::Collector collector;
  };

  void bump_activity() PP_EXCLUDES(activity_mutex_);

  EventBusConfig config_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  mutable Mutex activity_mutex_;
  CondVar activity_cv_;
  std::uint64_t activity_ PP_GUARDED_BY(activity_mutex_) = 0;
};

}  // namespace pp::ingest
