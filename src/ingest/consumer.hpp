// Ingest consumer: one thread that drains every bus lane, decodes frames,
// merges lanes into a single deterministic event order, and feeds the
// SessionJoiner → snapshot-group PrecomputeService pipeline.
//
// Determinism contract (extends the batched == sequential pin of the
// serving tier): the decisions, cost ledger, and joiner stats produced by
// threaded ingest are bit-identical to a sequential replay of the same
// events sorted by (t, seq). The merge achieves this with per-lane
// watermarks: each lane's events arrive in non-decreasing event time (the
// producer contract), so once every lane has advanced past time T, all
// events with t < T are present and can be globally ordered by (t, seq) —
// no later arrival can sort before them. Events at or above the minimum
// watermark wait for the next round; exhausted lanes (closed + drained +
// decoder empty) hold a +inf watermark so the tail always flushes.
//
// Batching: each merge round's events are handed to
// PrecomputeService::on_events() in slices of at most batch_capacity
// events, contexts and accesses together (group fan-out optionally over a
// ThreadPool). Where merge rounds and slices cut the stream does not
// affect results: on_events gives every cut the effect of a one-at-a-time
// replay, which is precisely the pinned batched == sequential property.
//
// Failure: an exception on the consumer thread (a policy that throws, a
// stored state that fails to decode) stops consumption. The consumer
// closes every bus lane, so producers blocked under kBlock return false
// instead of waiting forever, and join() rethrows the exception. Every
// snapshot group before the failing one has been applied to the service;
// nothing after it has.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <vector>

#include "ingest/event_bus.hpp"
#include "ingest/wire.hpp"
#include "obs/metrics.hpp"
#include "serving/precompute_service.hpp"
#include "util/thread.hpp"
#include "util/thread_pool.hpp"

namespace pp::ingest {

struct ConsumerConfig {
  /// Max events (contexts and accesses) per on_events() call. It also
  /// bounds how long one call holds the service mutex.
  std::size_t batch_capacity = 256;
  /// Optional pool for user-affine snapshot-group fan-out (policy must be
  /// concurrent_safe(); the service falls back to inline scoring if not).
  ThreadPool* pool = nullptr;
};

struct ConsumerStats {
  std::uint64_t events = 0;
  std::uint64_t contexts = 0;
  std::uint64_t accesses = 0;
  std::uint64_t batches = 0;        // on_events() calls
  std::uint64_t merge_rounds = 0;   // drain→merge→feed passes
  std::size_t max_held = 0;         // high-water decoded-but-ineligible events
  WireDecoderStats wire;            // summed over lanes
};

class IngestConsumer {
 public:
  IngestConsumer(EventBus& bus, serving::PrecomputeService& service,
                 ConsumerConfig config = {});
  ~IngestConsumer();
  IngestConsumer(const IngestConsumer&) = delete;
  IngestConsumer& operator=(const IngestConsumer&) = delete;

  /// Spawns the consumer thread. The thread runs until every lane is
  /// exhausted (producers must close their lanes) or an exception stops
  /// it, then returns.
  void start();
  /// Joins the consumer thread (blocks until the bus is exhausted), then
  /// rethrows the exception that stopped it, if any. The destructor joins
  /// without throwing.
  void join();

  /// Valid after join(): the join gives the reader happens-before over the
  /// consumer thread's writes.
  const ConsumerStats& stats() const { return stats_; }

 private:
  struct LaneState {
    WireDecoder decoder;
    std::deque<Event> events;  // decoded, waiting for the watermark
    std::int64_t watermark = std::numeric_limits<std::int64_t>::min();
    /// Lane closed + drained + decoded to exhaustion: no event can ever
    /// arrive again, so the watermark is pinned at +inf (a truncated frame
    /// tail on a closed lane is unfinishable and is abandoned as-is).
    bool done_input = false;
  };

  /// Thread body: consume() behind the failure handling described above.
  void run();
  /// Drain → decode → merge → feed rounds until every lane is exhausted.
  void consume();
  /// Drains + decodes one lane; returns true if anything new arrived.
  bool pump_lane(std::size_t i);
  /// Feeds one (t, seq)-ordered merge round into the service.
  void feed(const std::vector<Event>& merged);

  EventBus& bus_;
  serving::PrecomputeService& service_;
  ConsumerConfig config_;
  Thread thread_;
  bool started_ = false;

  std::vector<LaneState> lanes_;
  std::vector<std::vector<std::uint8_t>> chunks_;  // drain scratch
  ConsumerStats stats_;
  /// What stopped the consumer thread; read by join() after the join.
  std::exception_ptr error_;

  obs::LatencyHistogram* decision_hist_;  // per-event batch-feed latency
  obs::Counter* events_counter_;
};

}  // namespace pp::ingest
