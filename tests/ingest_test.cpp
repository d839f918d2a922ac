// The `ingest` test tier: wire-codec round-trip + corruption rejection,
// event-bus backpressure semantics, the joiner's monotone-clock guard,
// threaded-ingest == sequential-replay bit-identity (the tier's core
// determinism pin), and one-call tenant registration (validation, parity
// with hand-assembled wiring, teardown with a live daemon, durable
// round-trip).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "ingest/consumer.hpp"
#include "ingest/event_bus.hpp"
#include "ingest/load_gen.hpp"
#include "ingest/wire.hpp"
#include "online/cohort_map.hpp"
#include "online/tenant.hpp"
#include "online_test_util.hpp"
#include "serving/kv_store.hpp"
#include "serving/precompute_service.hpp"
#include "serving/stream.hpp"
#include "storage/kv_factory.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pp::ingest {
namespace {

using online::testutil::ctx;

Event make_context(std::uint64_t seq, std::uint64_t session,
                   std::uint64_t user, std::int64_t t, std::uint32_t c) {
  Event ev;
  ev.kind = EventKind::kContext;
  ev.seq = seq;
  ev.session_id = session;
  ev.user_id = user;
  ev.t = t;
  ev.context = ctx(c);
  return ev;
}

Event make_access(std::uint64_t seq, std::uint64_t session, std::int64_t t) {
  Event ev;
  ev.kind = EventKind::kAccess;
  ev.seq = seq;
  ev.session_id = session;
  ev.t = t;
  return ev;
}

std::vector<Event> decode_all(WireDecoder& decoder) {
  std::vector<Event> out;
  Event ev;
  while (decoder.next(&ev) == WireDecoder::Status::kOk) out.push_back(ev);
  return out;
}

/// Schema/meta the tenant tests share; static so it outlives every map.
const data::Dataset& drift_meta() {
  static const data::Dataset ds =
      online::testutil::drift_cohort(8, 2, /*flip_day=*/1000, 1);
  return ds;
}

/// One fitted model for the whole tier (fitting dominates the tier's cost;
/// every test clones it instead of refitting).
const std::shared_ptr<models::RnnModel>& trained_model() {
  static const std::shared_ptr<models::RnnModel> model =
      online::testutil::trained_drift_model();
  return model;
}

std::shared_ptr<models::RnnModel> clone_trained() {
  return std::shared_ptr<models::RnnModel>(trained_model()->clone());
}

// --- Wire codec ---------------------------------------------------------

TEST(WireCodec, RoundTripAcrossChunkBoundaries) {
  std::vector<Event> events;
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t i = 0; i < 50; ++i) {
    if (i % 3 == 2) {
      events.push_back(make_access(i, i / 3 + 1, static_cast<std::int64_t>(
                                                     10 * i + 5)));
    } else {
      events.push_back(make_context(i, i / 3 + 1, 100 + i,
                                    static_cast<std::int64_t>(10 * i),
                                    static_cast<std::uint32_t>(i % 7)));
    }
    const std::size_t n = encode_event(events.back(), &bytes);
    EXPECT_EQ(n, frame_size(events.back().kind));
  }

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}, bytes.size()}) {
    WireDecoder decoder;
    std::vector<Event> decoded;
    for (std::size_t off = 0; off < bytes.size(); off += chunk) {
      decoder.feed(bytes.data() + off, std::min(chunk, bytes.size() - off));
      for (const Event& ev : decode_all(decoder)) decoded.push_back(ev);
    }
    ASSERT_EQ(decoded.size(), events.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(decoded[i], events[i]) << "chunk=" << chunk << " i=" << i;
    }
    EXPECT_EQ(decoder.stats().frames_decoded, events.size());
    EXPECT_EQ(decoder.stats().crc_rejects, 0u);
    EXPECT_EQ(decoder.stats().header_rejects, 0u);
    EXPECT_EQ(decoder.stats().resync_bytes, 0u);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(WireCodec, TruncatedFramesNeedMoreThenResume) {
  const Event event = make_context(9, 4, 77, 1234, 3);
  std::vector<std::uint8_t> bytes;
  encode_event(event, &bytes);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    WireDecoder decoder;
    decoder.feed(bytes.data(), cut);
    Event out;
    EXPECT_EQ(decoder.next(&out), WireDecoder::Status::kNeedMore)
        << "cut=" << cut;
    EXPECT_EQ(decoder.buffered(), cut);
    // The remainder arrives; the frame decodes exactly.
    decoder.feed(bytes.data() + cut, bytes.size() - cut);
    ASSERT_EQ(decoder.next(&out), WireDecoder::Status::kOk) << "cut=" << cut;
    EXPECT_EQ(out, event);
    EXPECT_EQ(decoder.stats().crc_rejects, 0u);
    EXPECT_EQ(decoder.stats().header_rejects, 0u);
  }
}

TEST(WireCodec, BitFlipAnywhereRejectsTheFrameAndResyncs) {
  const Event a = make_context(1, 10, 500, 1000, 2);
  const Event b = make_access(2, 10, 1300);
  std::vector<std::uint8_t> clean;
  encode_event(a, &clean);
  const std::size_t a_size = clean.size();
  encode_event(b, &clean);

  for (std::size_t pos = 0; pos < a_size; ++pos) {
    std::vector<std::uint8_t> corrupt = clean;
    corrupt[pos] ^= 0x40;
    WireDecoder decoder;
    decoder.feed(corrupt);
    const std::vector<Event> decoded = decode_all(decoder);
    // CRC-32C detects every single-bit error, and a flipped magic byte is
    // not a frame start: the corrupted frame can never decode, while the
    // following frame always survives the resync.
    ASSERT_EQ(decoded.size(), 1u) << "pos=" << pos;
    EXPECT_EQ(decoded[0], b) << "pos=" << pos;
    const WireDecoderStats& stats = decoder.stats();
    EXPECT_GT(stats.crc_rejects + stats.header_rejects + stats.resync_bytes,
              0u)
        << "pos=" << pos;
  }
}

TEST(WireCodec, GarbageBetweenFramesIsSkippedAndCounted) {
  const Event a = make_context(1, 1, 9, 50, 1);
  const Event b = make_access(2, 1, 80);
  // 0x11 can never be mistaken for the 0xE7 magic, so every garbage byte
  // must land in resync_bytes.
  std::vector<std::uint8_t> bytes(13, 0x11);
  encode_event(a, &bytes);
  bytes.insert(bytes.end(), 9, 0x11);
  encode_event(b, &bytes);

  WireDecoder decoder;
  decoder.feed(bytes);
  const std::vector<Event> decoded = decode_all(decoder);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], a);
  EXPECT_EQ(decoded[1], b);
  EXPECT_GE(decoder.stats().resync_bytes, 13u + 9u);
  EXPECT_EQ(decoder.stats().crc_rejects, 0u);
}

// --- Event bus ----------------------------------------------------------

TEST(EventBus, ValidatesGeometry) {
  EventBusConfig zero_lanes;
  zero_lanes.num_lanes = 0;
  EXPECT_THROW(EventBus{zero_lanes}, std::invalid_argument);
  EventBusConfig zero_capacity;
  zero_capacity.lane_capacity = 0;
  EXPECT_THROW(EventBus{zero_capacity}, std::invalid_argument);
}

TEST(EventBus, BlockBackpressureIsLossless) {
  EventBusConfig config;
  config.num_lanes = 1;
  config.lane_capacity = 4;
  config.backpressure = BackpressurePolicy::kBlock;
  EventBus bus(config);

  constexpr int kChunks = 64;
  bool publishes_ok = true;
  std::thread producer([&] {
    for (int i = 0; i < kChunks; ++i) {
      publishes_ok =
          bus.publish(0, {static_cast<std::uint8_t>(i)}) && publishes_ok;
    }
    bus.close(0);
  });

  // Let the producer hit the full lane before the first drain, so the
  // blocking path is actually exercised (capacity 4 << 64 chunks).
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::vector<std::vector<std::uint8_t>> out;
  while (bus.drain(0, &out)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  producer.join();

  EXPECT_TRUE(publishes_ok);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kChunks));
  for (int i = 0; i < kChunks; ++i) {
    ASSERT_EQ(out[i].size(), 1u);
    EXPECT_EQ(out[i][0], static_cast<std::uint8_t>(i));  // FIFO preserved
  }
  const LaneStats stats = bus.lane_stats(0);
  EXPECT_EQ(stats.published, static_cast<std::uint64_t>(kChunks));
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_GE(stats.blocked, 1u);
  EXPECT_LE(stats.max_depth, config.lane_capacity);
}

TEST(EventBus, DropNewestCountsAndRejectsWhenFull) {
  EventBusConfig config;
  config.num_lanes = 1;
  config.lane_capacity = 4;
  config.backpressure = BackpressurePolicy::kDropNewest;
  EventBus bus(config);

  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (bus.publish(0, {static_cast<std::uint8_t>(i)})) ++accepted;
  }
  EXPECT_EQ(accepted, 4);
  LaneStats stats = bus.lane_stats(0);
  EXPECT_EQ(stats.published, 4u);
  EXPECT_EQ(stats.dropped, 6u);
  EXPECT_EQ(stats.max_depth, 4u);

  std::vector<std::vector<std::uint8_t>> out;
  EXPECT_TRUE(bus.drain(0, &out));  // open lane: drained but not exhausted
  EXPECT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)][0],
              static_cast<std::uint8_t>(i));  // survivors are the oldest
  }
  // Space freed: publishes land again.
  EXPECT_TRUE(bus.publish(0, {42}));
  bus.close(0);
  out.clear();
  // A closed lane reports exhausted (false) while still handing over the
  // final queued chunks in the same call.
  EXPECT_FALSE(bus.drain(0, &out));
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  EXPECT_FALSE(bus.drain(0, &out));
  EXPECT_TRUE(out.empty());
}

TEST(EventBus, CloseRejectsPublishesAndIsIdempotent) {
  EventBusConfig config;
  config.num_lanes = 2;
  EventBus bus(config);
  bus.close(0);
  bus.close(0);
  EXPECT_FALSE(bus.publish(0, {1}));
  EXPECT_EQ(bus.lane_stats(0).closed_rejects, 1u);
  std::vector<std::vector<std::uint8_t>> out;
  EXPECT_FALSE(bus.drain(0, &out));
  // The other lane is untouched.
  EXPECT_TRUE(bus.publish(1, {2}));
  bus.close_all();
  EXPECT_FALSE(bus.publish(1, {3}));
  const LaneStats totals = bus.totals();
  EXPECT_EQ(totals.published, 1u);
  EXPECT_EQ(totals.closed_rejects, 2u);
}

// --- Joiner clock guard -------------------------------------------------

TEST(SessionJoiner, ClockRewindIsClampedAndCounted) {
  std::vector<serving::JoinedSession> joined;
  serving::SessionJoiner joiner(
      /*window=*/10, /*grace=*/0,
      [&](const serving::JoinedSession& j) { joined.push_back(j); });

  joiner.on_context(1, 7, 100, ctx(1));
  joiner.advance_to(200);  // timer at 110 fires
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joiner.clock(), 200);

  // A skewed producer hands the joiner an earlier "now": counted, clamped,
  // nothing refires.
  joiner.advance_to(150);
  EXPECT_EQ(joiner.stats().clock_rewinds, 1u);
  EXPECT_EQ(joiner.clock(), 200);
  EXPECT_EQ(joined.size(), 1u);

  // A pending timer beyond the high-water mark must not fire early off a
  // rewound advance.
  joiner.on_context(2, 7, 195, ctx(0));  // timer at 205
  joiner.advance_to(120);
  EXPECT_EQ(joiner.stats().clock_rewinds, 2u);
  EXPECT_EQ(joined.size(), 1u);
  joiner.advance_to(205);
  ASSERT_EQ(joined.size(), 2u);
  EXPECT_EQ(joined[1].session_id, 2u);
  EXPECT_EQ(joined[1].completed_at, 205);
}

// --- Threaded ingest determinism ---------------------------------------

struct ReplayResult {
  std::vector<serving::JoinedSession> joined;
  serving::JoinerStats joiner;
  serving::OnlineMetrics metrics{0};
  serving::ServingCostSummary cost;
};

ReplayResult collect(online::ServingStack& stack) {
  ReplayResult r;
  r.joiner = stack.service().joiner_stats();
  r.metrics = stack.service().metrics();
  r.cost = stack.policy().cost_summary();
  return r;
}

void expect_bit_identical(const ReplayResult& a, const ReplayResult& b) {
  ASSERT_EQ(a.joined.size(), b.joined.size());
  for (std::size_t i = 0; i < a.joined.size(); ++i) {
    const serving::JoinedSession& x = a.joined[i];
    const serving::JoinedSession& y = b.joined[i];
    EXPECT_EQ(x.session_id, y.session_id) << "i=" << i;
    EXPECT_EQ(x.user_id, y.user_id) << "i=" << i;
    EXPECT_EQ(x.session_start, y.session_start) << "i=" << i;
    EXPECT_EQ(x.context, y.context) << "i=" << i;
    EXPECT_EQ(x.access, y.access) << "i=" << i;
    EXPECT_EQ(x.completed_at, y.completed_at) << "i=" << i;
  }

  EXPECT_EQ(a.joiner.contexts, b.joiner.contexts);
  EXPECT_EQ(a.joiner.accesses, b.joiner.accesses);
  EXPECT_EQ(a.joiner.joined, b.joiner.joined);
  EXPECT_EQ(a.joiner.duplicate_contexts, b.joiner.duplicate_contexts);
  EXPECT_EQ(a.joiner.duplicate_accesses, b.joiner.duplicate_accesses);
  EXPECT_EQ(a.joiner.orphan_accesses, b.joiner.orphan_accesses);
  EXPECT_EQ(a.joiner.orphan_drops, b.joiner.orphan_drops);
  EXPECT_EQ(a.joiner.late_accesses, b.joiner.late_accesses);

  EXPECT_EQ(a.metrics.predictions(), b.metrics.predictions());
  EXPECT_EQ(a.metrics.prefetches(), b.metrics.prefetches());
  EXPECT_EQ(a.metrics.successful_prefetches(),
            b.metrics.successful_prefetches());
  EXPECT_EQ(a.metrics.accesses(), b.metrics.accesses());
  EXPECT_EQ(a.metrics.precision(), b.metrics.precision());
  EXPECT_EQ(a.metrics.recall(), b.metrics.recall());
  // Exact double equality: "bit-identical" means the scores themselves,
  // not just the counts.
  EXPECT_EQ(a.metrics.daily_pr_auc_series(), b.metrics.daily_pr_auc_series());

  EXPECT_EQ(a.cost.predictions, b.cost.predictions);
  EXPECT_EQ(a.cost.state_updates, b.cost.state_updates);
  EXPECT_EQ(a.cost.model_flops, b.cost.model_flops);
  EXPECT_EQ(a.cost.storage_bytes, b.cost.storage_bytes);
  EXPECT_EQ(a.cost.live_keys, b.cost.live_keys);
  EXPECT_EQ(a.cost.kv.lookups, b.cost.kv.lookups);
  EXPECT_EQ(a.cost.kv.hits, b.cost.kv.hits);
  EXPECT_EQ(a.cost.kv.writes, b.cost.kv.writes);
  EXPECT_EQ(a.cost.kv.bytes_read, b.cost.kv.bytes_read);
  EXPECT_EQ(a.cost.kv.bytes_written, b.cost.kv.bytes_written);
}

TEST(IngestDeterminism, ThreadedIngestMatchesSequentialReplayBitIdentical) {
  LoadGenConfig lg;
  lg.num_users = 4096;
  lg.num_producers = 4;
  lg.sessions_per_producer = 300;
  lg.zipf_theta = 0.9;
  lg.start_time = 0;
  lg.session_length = drift_meta().session_length;  // == tenant window
  lg.mean_gap = 60;
  lg.access_fraction = 0.4;
  lg.seed = 0xC0FFEEull;
  lg.frames_per_chunk = 8;
  const LoadGenerator gen(lg);

  online::CohortRegistryMap tenants;
  auto make_spec = [&](const std::string& id) {
    online::TenantSpec spec;
    spec.id = id;
    spec.model = clone_trained();
    spec.dataset_meta = &drift_meta();
    spec.backend = storage::KvBackendSpec::sharded(4);
    spec.threshold = 0.5;
    spec.capture = false;
    return spec;
  };
  online::ServingStack& seq = tenants.register_tenant(make_spec("seq"));
  online::ServingStack& thr = tenants.register_tenant(make_spec("thr"));

  ReplayResult seq_result;
  seq.service().set_completion_listener(
      [&](const serving::JoinedSession& j) { seq_result.joined.push_back(j); });
  ReplayResult thr_result;
  thr.service().set_completion_listener(
      [&](const serving::JoinedSession& j) { thr_result.joined.push_back(j); });

  // Sequential baseline: the canonical (t, seq)-ordered event set, one
  // event at a time.
  const std::vector<Event> all = gen.generate_all();
  ASSERT_FALSE(all.empty());
  ASSERT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const Event& x, const Event& y) {
                               return x.t != y.t ? x.t < y.t : x.seq < y.seq;
                             }));
  for (const Event& ev : all) {
    if (ev.kind == EventKind::kContext) {
      seq.service().on_session_start(ev.session_id, ev.user_id, ev.t,
                                     ev.context);
    } else {
      seq.service().on_access(ev.session_id, ev.t);
    }
  }
  seq.service().flush();

  // Threaded: 4 producer threads → bounded lanes → watermark-merging
  // consumer fanning batches over a pool.
  EventBusConfig bus_config;
  bus_config.num_lanes = lg.num_producers;
  bus_config.lane_capacity = 32;
  bus_config.backpressure = BackpressurePolicy::kBlock;
  EventBus bus(bus_config);
  ThreadPool pool(4);
  ConsumerConfig consumer_config;
  consumer_config.batch_capacity = 64;
  consumer_config.pool = &pool;
  IngestConsumer consumer(bus, thr.service(), consumer_config);
  consumer.start();
  const LoadGenStats produced = gen.run(&bus);
  consumer.join();
  thr.service().flush();

  EXPECT_EQ(produced.events, all.size());
  EXPECT_EQ(produced.chunks_dropped, 0u);  // kBlock is lossless
  const ConsumerStats& consumed = consumer.stats();
  EXPECT_EQ(consumed.events, produced.events);
  EXPECT_EQ(consumed.contexts, produced.contexts);
  EXPECT_EQ(consumed.accesses, produced.accesses);
  EXPECT_EQ(consumed.wire.frames_decoded, produced.events);
  EXPECT_EQ(consumed.wire.crc_rejects, 0u);
  EXPECT_EQ(consumed.wire.header_rejects, 0u);

  seq_result = [&] {
    ReplayResult r = collect(seq);
    r.joined = std::move(seq_result.joined);
    return r;
  }();
  thr_result = [&] {
    ReplayResult r = collect(thr);
    r.joined = std::move(thr_result.joined);
    return r;
  }();
  // Sanity: the workload actually exercises both decision branches before
  // we call the two replays identical.
  EXPECT_EQ(seq_result.metrics.predictions(), produced.contexts);
  EXPECT_GT(seq_result.joiner.joined, 0u);
  expect_bit_identical(seq_result, thr_result);
}

TEST(IngestConsumer, CorruptFramesAreCountedAndSkippedNotFatal) {
  serving::LocalKvStore kv;
  serving::HiddenStateStore store(kv);
  models::RnnModel model(drift_meta(), online::testutil::small_rnn_config());
  serving::RnnPolicy policy(model, store);
  serving::PrecomputeService service(policy, 0.5, 600, 0, 0);

  EventBusConfig config;
  config.num_lanes = 1;
  EventBus bus(config);
  std::vector<std::uint8_t> chunk;
  encode_event(make_context(0, 1, 11, 0, 1), &chunk);
  const std::size_t second_begin = chunk.size();
  encode_event(make_context(1, 2, 12, 100, 0), &chunk);
  chunk[second_begin + kWireHeaderBytes + 2] ^= 0x10;  // corrupt payload
  encode_event(make_context(2, 3, 13, 200, 1), &chunk);
  ASSERT_TRUE(bus.publish(0, std::move(chunk)));
  bus.close_all();

  IngestConsumer consumer(bus, service);
  consumer.start();
  consumer.join();
  service.flush();

  const ConsumerStats& stats = consumer.stats();
  EXPECT_EQ(stats.contexts, 2u);  // the corrupted frame is gone, not wrong
  EXPECT_GE(stats.wire.crc_rejects + stats.wire.header_rejects, 1u);
  const serving::JoinerStats joiner = service.joiner_stats();
  EXPECT_EQ(joiner.contexts, 2u);
  EXPECT_EQ(joiner.joined, 2u);
}

/// A policy whose every score throws, as a stored state that fails to
/// decode would.
class ThrowingPolicy final : public serving::PrecomputePolicy {
 public:
  double score_session(std::uint64_t, std::int64_t,
                       std::span<const std::uint32_t>) override {
    throw std::runtime_error("stored state failed to decode");
  }
  void on_session_complete(const serving::JoinedSession&) override {}
  serving::ServingCostSummary cost_summary() const override { return {}; }
  const char* name() const override { return "throwing"; }
};

TEST(IngestConsumer, ExceptionClosesTheBusAndRethrowsFromJoin) {
  ThrowingPolicy policy;
  serving::PrecomputeService service(policy, 0.5, 600, 0, 0);
  EventBusConfig config;
  config.num_lanes = 1;
  config.lane_capacity = 1;
  config.backpressure = BackpressurePolicy::kBlock;
  EventBus bus(config);
  IngestConsumer consumer(bus, service);
  consumer.start();

  // The producer outpaces a one-chunk lane, so it blocks in publish()
  // once the consumer has died: only the consumer's close can free it.
  std::size_t accepted = 0;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < 100; ++i) {
      std::vector<std::uint8_t> chunk;
      encode_event(make_context(i, i + 1, 7, static_cast<std::int64_t>(i) * 10,
                                1),
                   &chunk);
      if (bus.publish(0, std::move(chunk))) ++accepted;
    }
    bus.close(0);
  });
  producer.join();
  EXPECT_THROW(consumer.join(), std::runtime_error);
  EXPECT_LT(accepted, 100u);
  EXPECT_GT(bus.lane_stats(0).closed_rejects, 0u);
  EXPECT_EQ(service.joiner_stats().contexts, 0u);
}

// --- Load generator -----------------------------------------------------

TEST(LoadGenerator, DeterministicLaneMonotoneAndZipfSkewed) {
  LoadGenConfig lg;
  lg.num_users = 1000;
  lg.num_producers = 3;
  lg.sessions_per_producer = 500;
  lg.zipf_theta = 0.99;
  const LoadGenerator gen(lg);

  std::vector<Event> merged;
  std::vector<std::uint64_t> seqs;
  for (std::size_t lane = 0; lane < lg.num_producers; ++lane) {
    const std::vector<Event> events = gen.lane_events(lane);
    ASSERT_GE(events.size(), lg.sessions_per_producer);
    for (std::size_t i = 1; i < events.size(); ++i) {
      ASSERT_LE(events[i - 1].t, events[i].t)  // producer lane contract
          << "lane=" << lane << " i=" << i;
      ASSERT_LT(events[i - 1].seq, events[i].seq);
    }
    for (const Event& ev : events) {
      ASSERT_LT(ev.user_id, lg.num_users);
      seqs.push_back(ev.seq);
      merged.push_back(ev);
    }
    // Pure function of (seed, lane): regenerating is bit-identical.
    EXPECT_EQ(gen.lane_events(lane), events);
  }
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(std::adjacent_find(seqs.begin(), seqs.end()), seqs.end())
      << "seq must be globally unique across lanes";

  // generate_all is exactly the union of the lanes in (t, seq) order.
  std::sort(merged.begin(), merged.end(), [](const Event& a, const Event& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  });
  EXPECT_EQ(gen.generate_all(), merged);

  // Heavy tail: the most popular user draws far more sessions than the
  // uniform share (1/1000 of ~1500 sessions ≈ 1.5).
  std::vector<std::size_t> per_user(lg.num_users, 0);
  std::size_t contexts = 0;
  for (const Event& ev : merged) {
    if (ev.kind == EventKind::kContext) {
      ++per_user[ev.user_id];
      ++contexts;
    }
  }
  const std::size_t top = *std::max_element(per_user.begin(), per_user.end());
  EXPECT_GT(top * lg.num_users, 20 * contexts)
      << "Zipf(0.99) head should beat the uniform share by >20x";
}

TEST(LoadGenerator, ValidatesConfigAndBusGeometry) {
  EXPECT_THROW(ZipfSampler(0, 0.5), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, 0.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, 1.0), std::invalid_argument);

  LoadGenConfig bad;
  bad.num_producers = 0;
  EXPECT_THROW(LoadGenerator{bad}, std::invalid_argument);
  bad = {};
  bad.frames_per_chunk = 0;
  EXPECT_THROW(LoadGenerator{bad}, std::invalid_argument);

  LoadGenConfig ok;
  ok.num_producers = 4;
  ok.num_users = 100;
  ok.sessions_per_producer = 1;
  const LoadGenerator gen(ok);
  EventBusConfig small;
  small.num_lanes = 2;  // fewer lanes than producers
  EventBus bus(small);
  EXPECT_THROW(gen.run(&bus), std::invalid_argument);
}

// --- Tenant registration ------------------------------------------------

online::TenantSpec base_spec(const std::string& id) {
  online::TenantSpec spec;
  spec.id = id;
  spec.model = clone_trained();
  spec.dataset_meta = &drift_meta();
  spec.capture = false;
  return spec;
}

TEST(RegisterTenant, ValidatesSpecBeforeCreatingAnyState) {
  online::CohortRegistryMap tenants;

  EXPECT_THROW(tenants.register_tenant(base_spec("")), std::invalid_argument);

  online::TenantSpec no_model = base_spec("t");
  no_model.model = nullptr;
  EXPECT_THROW(tenants.register_tenant(no_model), std::invalid_argument);

  online::TenantSpec no_meta = base_spec("t");
  no_meta.dataset_meta = nullptr;
  EXPECT_THROW(tenants.register_tenant(no_meta), std::invalid_argument);

  online::TenantSpec bad_window = base_spec("t");
  bad_window.window = -1;
  EXPECT_THROW(tenants.register_tenant(bad_window), std::invalid_argument);

  online::TenantSpec zero_shards = base_spec("t");
  zero_shards.backend = storage::KvBackendSpec::sharded(0);
  EXPECT_THROW(tenants.register_tenant(zero_shards), std::invalid_argument);

  online::TenantSpec no_dir = base_spec("t");
  no_dir.backend = storage::KvBackendSpec::durable_dir("");
  EXPECT_THROW(tenants.register_tenant(no_dir), std::invalid_argument);

  online::TenantSpec zero_segment = base_spec("t");
  zero_segment.backend = storage::KvBackendSpec::durable_dir("/tmp/x");
  zero_segment.backend.durable.segment_bytes = 0;
  EXPECT_THROW(tenants.register_tenant(zero_segment), std::invalid_argument);

  // int8 scoring needs the int8 state codec AND int8 replicas.
  online::TenantSpec int8_f32_codec = base_spec("t");
  int8_f32_codec.precision = serving::ScorePrecision::kInt8;
  int8_f32_codec.cohort.quantize_replicas = true;
  EXPECT_THROW(tenants.register_tenant(int8_f32_codec), std::invalid_argument);

  online::TenantSpec int8_no_replicas = base_spec("t");
  int8_no_replicas.precision = serving::ScorePrecision::kInt8;
  int8_no_replicas.codec = serving::StateCodec::kInt8;
  EXPECT_THROW(tenants.register_tenant(int8_no_replicas),
               std::invalid_argument);

  // Every rejection above must have left the map untouched.
  EXPECT_EQ(tenants.size(), 0u);
  EXPECT_EQ(tenants.find_stack("t"), nullptr);

  tenants.register_tenant(base_spec("t"));
  EXPECT_THROW(tenants.register_tenant(base_spec("t")),
               std::invalid_argument);  // duplicate id
  EXPECT_EQ(tenants.size(), 1u);
  EXPECT_NE(tenants.find_stack("t"), nullptr);
  EXPECT_EQ(tenants.find_stack("missing"), nullptr);
}

TEST(RegisterTenant, StackMatchesHandAssembledWiringBitIdentical) {
  // The frozen-tenant path through register_tenant (registry-backed policy
  // on a cloned model) must reproduce the classic hand-wired fixed-model
  // stack exactly — this is what lets run_online_experiment's arms migrate
  // to the one-call API without moving any number.
  const data::Dataset replay =
      online::testutil::drift_cohort(6, 2, /*flip_day=*/1000, 100);

  serving::LocalKvStore kv;
  serving::HiddenStateStore store(kv);
  serving::RnnPolicy hand_policy(*trained_model(), store);
  serving::PrecomputeService hand_service(hand_policy, 0.5,
                                          replay.session_length, 0,
                                          replay.start_time);

  online::CohortRegistryMap tenants;
  online::TenantSpec spec = base_spec("frozen");
  spec.dataset_meta = &replay;
  online::ServingStack& stack = tenants.register_tenant(spec);
  EXPECT_EQ(stack.id(), "frozen");
  EXPECT_EQ(stack.backend_kind(), storage::KvBackendKind::kLocal);
  EXPECT_FALSE(stack.resumed_from_checkpoint());
  EXPECT_EQ(stack.journal(), nullptr);

  struct Start {
    std::int64_t t;
    std::uint64_t user;
    std::array<std::uint32_t, data::kMaxContextFields> context;
    bool access;
  };
  std::vector<Start> starts;
  for (const auto& user : replay.users) {
    for (const auto& s : user.sessions) {
      starts.push_back({s.timestamp, user.user_id, s.context, s.access != 0});
    }
  }
  std::stable_sort(starts.begin(), starts.end(),
                   [](const Start& a, const Start& b) {
                     return a.t != b.t ? a.t < b.t : a.user < b.user;
                   });
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const Start& s = starts[i];
    const std::uint64_t session_id = i + 1;
    hand_service.on_session_start(session_id, s.user, s.t, s.context);
    stack.service().on_session_start(session_id, s.user, s.t, s.context);
    if (s.access) {
      hand_service.on_access(session_id, s.t + 300);
      stack.service().on_access(session_id, s.t + 300);
    }
  }
  hand_service.flush();
  stack.service().flush();

  const auto hand_metrics = hand_service.metrics();
  const auto stack_metrics = stack.service().metrics();
  EXPECT_GT(hand_metrics.predictions(), 0u);
  EXPECT_EQ(hand_metrics.predictions(), stack_metrics.predictions());
  EXPECT_EQ(hand_metrics.prefetches(), stack_metrics.prefetches());
  EXPECT_EQ(hand_metrics.successful_prefetches(),
            stack_metrics.successful_prefetches());
  EXPECT_EQ(hand_metrics.accesses(), stack_metrics.accesses());
  EXPECT_EQ(hand_metrics.daily_pr_auc_series(),
            stack_metrics.daily_pr_auc_series());

  const auto hand_cost = hand_policy.cost_summary();
  const auto stack_cost = stack.policy().cost_summary();
  EXPECT_EQ(hand_cost.predictions, stack_cost.predictions);
  EXPECT_EQ(hand_cost.state_updates, stack_cost.state_updates);
  EXPECT_EQ(hand_cost.model_flops, stack_cost.model_flops);
  EXPECT_EQ(hand_cost.kv.lookups, stack_cost.kv.lookups);
  EXPECT_EQ(hand_cost.kv.writes, stack_cost.kv.writes);
  EXPECT_EQ(hand_cost.storage_bytes, stack_cost.storage_bytes);
  EXPECT_EQ(hand_cost.live_keys, stack_cost.live_keys);
}

TEST(RegisterTenant, TeardownStopsARunningDaemonCleanly) {
  {
    online::CohortRegistryMap tenants;
    online::TenantSpec spec = base_spec("daemonized");
    spec.capture = true;
    spec.cohort.daemon.min_new_sessions = 1u << 30;  // parked: never triggers
    spec.cohort.daemon.poll_interval = std::chrono::milliseconds(2);
    spec.start_daemon = true;
    online::ServingStack& stack = tenants.register_tenant(spec);
    EXPECT_TRUE(stack.daemon_running());

    // The capture listener feeds the cohort's learner while the daemon is
    // live.
    stack.service().on_session_start(1, 42, 0, ctx(1));
    stack.service().on_access(1, 300);
    stack.service().flush();
    EXPECT_EQ(stack.cohort().learner().buffer().size(), 1u);

    stack.stop_daemon();
    EXPECT_FALSE(stack.daemon_running());
    stack.start_daemon();  // idempotent restart through the handle
    stack.start_daemon();
    EXPECT_TRUE(stack.daemon_running());
    // Scope exit: the map must stop the daemon, then destroy stacks before
    // cohorts (the policy references the cohort's registry).
  }
  SUCCEED();
}

TEST(RegisterTenant, DurableBackendRecoversStateAcrossRegistrations) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pp_ingest_tenant_kv")
          .string();
  std::filesystem::remove_all(dir);

  {
    online::CohortRegistryMap tenants;
    online::TenantSpec spec = base_spec("durable");
    spec.backend = storage::KvBackendSpec::durable_dir(dir);
    online::ServingStack& stack = tenants.register_tenant(spec);
    EXPECT_EQ(stack.backend_kind(), storage::KvBackendKind::kDurable);
    stack.service().on_session_start(1, 7, 0, ctx(1));
    stack.service().flush();  // join fires → hidden state written
    EXPECT_EQ(stack.policy().cost_summary().live_keys, 1u);
    stack.flush_durable();
  }

  online::CohortRegistryMap reopened;
  online::TenantSpec spec = base_spec("durable");
  spec.backend = storage::KvBackendSpec::durable_dir(dir);
  online::ServingStack& stack = reopened.register_tenant(spec);
  // The recovered hidden state serves the user's next session start.
  stack.service().on_session_start(2, 7, 1000, ctx(0));
  EXPECT_EQ(stack.policy().cost_summary().kv.hits, 1u);
  std::filesystem::remove_all(dir);
}

// --- One event path: cut invariance ------------------------------------

/// A generated stream plus a hand-built tail of joiner edge cases, in
/// (t, seq) order: three starts at one t (two by one user), an access
/// ahead of its context, an in-window duplicate context, a late access,
/// and a context redelivered after its window closed.
std::vector<Event> edge_case_stream(std::int64_t horizon) {
  LoadGenConfig lg;
  lg.num_users = 48;  // few users: repeat visits score stored states
  lg.num_producers = 4;
  lg.sessions_per_producer = 150;
  lg.zipf_theta = 0.9;
  lg.start_time = 0;
  lg.session_length = drift_meta().session_length;
  lg.mean_gap = 300;  // the stream spans two metrics days
  lg.access_fraction = 0.4;
  lg.seed = 0xC07ull;
  std::vector<Event> events = LoadGenerator(lg).generate_all();

  std::uint64_t seq = 0, sid = 0;
  for (const Event& ev : events) {
    seq = std::max(seq, ev.seq);
    sid = std::max(sid, ev.session_id);
  }
  const std::int64_t t = events.back().t + 1;
  const std::uint64_t a = sid + 1, b = sid + 2, c = sid + 3, d = sid + 4;
  const std::vector<Event> tail{
      make_context(++seq, a, 3, t, 1),
      make_context(++seq, b, 3, t, 2),
      make_context(++seq, c, 5, t, 0),
      make_access(++seq, d, t + 5),
      make_context(++seq, d, 9, t + 20, 1),
      make_context(++seq, a, 3, t + 30, 1),  // in-window duplicate of a
      make_access(++seq, a, t + 40),
      // Advances the clock past the timers of a, b, c and d.
      make_context(++seq, sid + 5, 3, t + horizon + 50, 0),
      make_access(++seq, c, t + horizon + 100),           // late
      make_context(++seq, b, 3, t + horizon + 200, 2),    // redelivered
      make_context(++seq, sid + 6, 3, t + horizon + 300, 1),
  };
  events.insert(events.end(), tail.begin(), tail.end());
  return events;
}

struct CutReplay {
  ReplayResult result;
  std::vector<bool> decisions;  // per event; access slots stay false
};

class OnEventsCut
    : public ::testing::TestWithParam<
          std::tuple<serving::ScorePrecision, /*threaded=*/bool>> {};

TEST_P(OnEventsCut, EveryCutMatchesTheOneEventReplay) {
  const auto [precision, threaded] = GetParam();
  constexpr std::int64_t kGrace = 60;
  const std::vector<Event> events =
      edge_case_stream(drift_meta().session_length + kGrace);
  ASSERT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const Event& x, const Event& y) {
                               return x.t != y.t ? x.t < y.t : x.seq < y.seq;
                             }));
  ThreadPool pool(4);
  ThreadPool* const fanout = threaded ? &pool : nullptr;

  online::CohortRegistryMap tenants;
  std::size_t replays = 0;
  const auto replay =
      [&](const std::function<std::vector<bool>(serving::PrecomputeService&)>&
              feed) {
        online::TenantSpec spec = base_spec("cut" + std::to_string(replays++));
        spec.backend = storage::KvBackendSpec::sharded(4);
        spec.grace = kGrace;
        spec.precision = precision;
        if (precision == serving::ScorePrecision::kInt8) {
          spec.codec = serving::StateCodec::kInt8;
          spec.cohort.quantize_replicas = true;
        }
        online::ServingStack& stack = tenants.register_tenant(spec);
        std::vector<serving::JoinedSession> joined;
        stack.service().set_completion_listener(
            [&](const serving::JoinedSession& j) { joined.push_back(j); });
        CutReplay r;
        r.decisions = feed(stack.service());
        stack.service().flush();
        stack.service().set_completion_listener(nullptr);
        r.result = collect(stack);
        r.result.joined = std::move(joined);
        return r;
      };
  // Feeds one on_events call per slice; `cuts` are the slice boundaries.
  const auto sliced = [&](std::vector<std::size_t> cuts) {
    cuts.push_back(events.size());
    return replay([&](serving::PrecomputeService& service) {
      const auto out = std::make_unique<bool[]>(events.size());
      std::size_t begin = 0;
      for (const std::size_t end : cuts) {
        service.on_events(std::span(events).subspan(begin, end - begin),
                          fanout, {out.get() + begin, end - begin});
        begin = end;
      }
      return std::vector<bool>(out.get(), out.get() + events.size());
    });
  };

  // Reference: one event per call through the wrappers.
  const CutReplay reference =
      replay([&](serving::PrecomputeService& service) {
        std::vector<bool> decisions(events.size(), false);
        for (std::size_t i = 0; i < events.size(); ++i) {
          const Event& ev = events[i];
          if (ev.kind == EventKind::kContext) {
            decisions[i] = service.on_session_start(ev.session_id, ev.user_id,
                                                    ev.t, ev.context);
          } else {
            service.on_access(ev.session_id, ev.t);
          }
        }
        return decisions;
      });
  // The stream exercises what it claims to.
  const serving::JoinerStats& j = reference.result.joiner;
  EXPECT_EQ(j.duplicate_contexts, 2u);
  EXPECT_GE(j.late_accesses, 1u);
  EXPECT_GE(j.orphan_accesses, 1u);
  EXPECT_EQ(j.joined, j.contexts - j.duplicate_contexts);
  const serving::OnlineMetrics& m = reference.result.metrics;
  EXPECT_GT(m.prefetches(), 0u);
  EXPECT_LT(m.prefetches(), m.predictions());
  EXPECT_GE(m.days(), 2u);
  EXPECT_GT(reference.result.cost.kv.hits, 0u);

  std::vector<std::pair<std::string, std::vector<std::size_t>>> cuts{
      {"whole stream", {}}};
  for (const std::size_t width : {2, 7, 64}) {
    std::vector<std::size_t> fixed;
    for (std::size_t c = width; c < events.size(); c += width) {
      fixed.push_back(c);
    }
    cuts.emplace_back("slices of " + std::to_string(width), fixed);
  }
  Rng rng(0xC075EEDull);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::size_t> random;
    for (int k = 0; k < 40; ++k) {
      random.push_back(1 + rng.uniform_index(events.size() - 1));
    }
    std::sort(random.begin(), random.end());
    random.erase(std::unique(random.begin(), random.end()), random.end());
    cuts.emplace_back("random cuts " + std::to_string(round), random);
  }

  for (const auto& [name, points] : cuts) {
    SCOPED_TRACE(name);
    const CutReplay cut = sliced(points);
    EXPECT_EQ(cut.decisions, reference.decisions);
    expect_bit_identical(reference.result, cut.result);
    ASSERT_EQ(cut.result.joined.size(), reference.result.joined.size());
    for (std::size_t i = 0; i < cut.result.joined.size(); ++i) {
      EXPECT_EQ(cut.result.joined[i].score, reference.result.joined[i].score)
          << "i=" << i;
      EXPECT_EQ(cut.result.joined[i].prefetched,
                reference.result.joined[i].prefetched)
          << "i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Precisions, OnEventsCut,
    ::testing::Combine(::testing::Values(serving::ScorePrecision::kFloat32,
                                         serving::ScorePrecision::kInt8),
                       ::testing::Bool()),
    [](const auto& info) {
      const bool int8 =
          std::get<0>(info.param) == serving::ScorePrecision::kInt8;
      return std::string(int8 ? "int8" : "f32") +
             (std::get<1>(info.param) ? "_pool4" : "_inline");
    });

}  // namespace
}  // namespace pp::ingest
