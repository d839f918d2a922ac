#include "ingest/consumer.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/stopwatch.hpp"

namespace pp::ingest {

IngestConsumer::IngestConsumer(EventBus& bus,
                               serving::PrecomputeService& service,
                               ConsumerConfig config)
    : bus_(bus), service_(service), config_(config) {
  if (config_.batch_capacity == 0) {
    throw std::invalid_argument("IngestConsumer: batch_capacity must be > 0");
  }
  lanes_.resize(bus_.num_lanes());
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  decision_hist_ = &reg.histogram("ingest_decision_latency_ns");
  events_counter_ = &reg.counter("ingest_events_total");
}

IngestConsumer::~IngestConsumer() {
  if (started_ && thread_.joinable()) thread_.join();
}

void IngestConsumer::start() {
  if (started_) throw std::logic_error("IngestConsumer: already started");
  started_ = true;
  thread_ = Thread([this] { run(); });
}

void IngestConsumer::join() {
  if (started_ && thread_.joinable()) thread_.join();
  if (error_) std::rethrow_exception(error_);
}

bool IngestConsumer::pump_lane(std::size_t i) {
  LaneState& lane = lanes_[i];
  if (lane.done_input) return false;
  chunks_.clear();
  const bool open = bus_.drain(i, &chunks_);
  bool progress = !chunks_.empty();
  for (const std::vector<std::uint8_t>& chunk : chunks_) {
    lane.decoder.feed(chunk);
  }
  Event ev;
  while (lane.decoder.next(&ev) == WireDecoder::Status::kOk) {
    // Producer contract: non-decreasing t per lane. A violating event would
    // break watermark safety, so clamp it to the lane watermark — the
    // joiner's own clock guard then counts any residual rewind.
    if (ev.t < lane.watermark) ev.t = lane.watermark;
    lane.watermark = ev.t;
    lane.events.push_back(ev);
    progress = true;
  }
  if (!open) {
    // drain() returned closed-and-empty: every chunk this lane will ever
    // carry has been fed and decoded above. Pin the watermark so the
    // lane's remaining buffered events become globally eligible.
    lane.done_input = true;
    lane.watermark = std::numeric_limits<std::int64_t>::max();
    progress = true;
  }
  return progress;
}

void IngestConsumer::feed(const std::vector<Event>& merged) {
  for (std::size_t begin = 0; begin < merged.size();
       begin += config_.batch_capacity) {
    const std::span<const Event> slice(
        merged.data() + begin,
        std::min(config_.batch_capacity, merged.size() - begin));
    std::uint64_t contexts = 0;
    for (const Event& ev : slice) {
      contexts += ev.kind == EventKind::kContext ? 1 : 0;
    }
    Stopwatch watch;
    service_.on_events(slice, config_.pool);
    ++stats_.batches;
    stats_.events += slice.size();
    stats_.contexts += contexts;
    stats_.accesses += slice.size() - contexts;
    events_counter_->inc(slice.size());
    if (contexts == 0) continue;
    // One record per context event: the slice's wall time, attributed
    // evenly. p50/p99 of this histogram are the bench's decision-latency
    // numbers.
    const std::int64_t per_event =
        watch.elapsed_ns() / static_cast<std::int64_t>(contexts);
    for (std::uint64_t i = 0; i < contexts; ++i) {
      decision_hist_->record(per_event);
    }
  }
}

void IngestConsumer::run() {
  try {
    consume();
  } catch (...) {
    error_ = std::current_exception();
    // Producers blocked on a full lane under kBlock would otherwise wait
    // for a consumer that is gone.
    bus_.close_all();
  }
  for (const LaneState& lane : lanes_) {
    stats_.wire.frames_decoded += lane.decoder.stats().frames_decoded;
    stats_.wire.crc_rejects += lane.decoder.stats().crc_rejects;
    stats_.wire.header_rejects += lane.decoder.stats().header_rejects;
    stats_.wire.resync_bytes += lane.decoder.stats().resync_bytes;
  }
}

void IngestConsumer::consume() {
  std::vector<Event> merged;
  for (;;) {
    const std::uint64_t seen = bus_.activity_epoch();
    bool progress = false;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      progress |= pump_lane(i);
    }

    // Watermark: every lane's future events have t >= its watermark, so
    // events strictly below the minimum are complete and safely ordered.
    std::int64_t min_wm = std::numeric_limits<std::int64_t>::max();
    bool all_exhausted = true;
    for (const LaneState& lane : lanes_) {
      if (!lane.done_input || !lane.events.empty()) all_exhausted = false;
      if (lane.watermark < min_wm) min_wm = lane.watermark;
    }

    merged.clear();
    std::size_t held = 0;
    for (LaneState& lane : lanes_) {
      while (!lane.events.empty() &&
             (lane.events.front().t < min_wm ||
              min_wm == std::numeric_limits<std::int64_t>::max())) {
        merged.push_back(lane.events.front());
        lane.events.pop_front();
      }
      held += lane.events.size();
    }
    if (held > stats_.max_held) stats_.max_held = held;

    if (!merged.empty()) {
      // seq is globally unique, so (t, seq) is a total order — the merge
      // result is independent of thread timing.
      std::sort(merged.begin(), merged.end(),
                [](const Event& a, const Event& b) {
                  return a.t != b.t ? a.t < b.t : a.seq < b.seq;
                });
      ++stats_.merge_rounds;
      feed(merged);
      progress = true;
    }

    if (all_exhausted) break;
    if (!progress) bus_.wait_activity(seen);
  }
}

}  // namespace pp::ingest
