// Correctness suite for the metrics layer (src/obs/): histogram bucket
// math and percentile error bounds, lock-free recording under threads,
// registry addressing/canonicalization/kind rules, collector summing and
// lock rules, and the two exposition formats. Runs in the `obs` ctest
// tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace pp::obs {
namespace {

// ------------------------------------------------------------- histogram

TEST(LatencyHistogram, EmptySnapshot) {
  LatencyHistogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0);
  EXPECT_EQ(s.max, 0);
  EXPECT_TRUE(s.buckets.empty());
  EXPECT_EQ(s.p50(), 0.0);
  EXPECT_EQ(s.p99(), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(LatencyHistogram, SingleSample) {
  LatencyHistogram h;
  h.record(1234);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 1234);
  EXPECT_EQ(s.max, 1234);
  ASSERT_EQ(s.buckets.size(), 1u);
  EXPECT_EQ(s.buckets[0].second, 1u);
  // Every percentile of a one-sample histogram is that sample (the bucket
  // upper bound clamps to the observed max).
  EXPECT_EQ(s.p50(), 1234.0);
  EXPECT_EQ(s.p99(), 1234.0);
  EXPECT_EQ(s.mean(), 1234.0);
}

TEST(LatencyHistogram, NegativeValuesClampToZero) {
  LatencyHistogram h;
  h.record(-5);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 0);
  EXPECT_EQ(s.p50(), 0.0);
}

TEST(LatencyHistogram, BucketIndexInvariants) {
  // Exact buckets below 2^kSubBits; every value is <= its bucket's upper
  // bound; bucket assignment is monotone in the value.
  for (std::int64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_upper(LatencyHistogram::bucket_index(v)),
              v);
  }
  std::size_t prev_index = 0;
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{7}, std::int64_t{8},
                         std::int64_t{9}, std::int64_t{100},
                         std::int64_t{4096}, std::int64_t{1000000},
                         std::int64_t{123456789}, std::int64_t{1} << 41}) {
    const std::size_t index = LatencyHistogram::bucket_index(v);
    ASSERT_LT(index, LatencyHistogram::kBuckets);
    EXPECT_LE(v, LatencyHistogram::bucket_upper(index));
    EXPECT_GE(index, prev_index);
    prev_index = index;
  }
  // Out-of-range values clamp into the last bucket instead of indexing
  // past the array.
  EXPECT_EQ(LatencyHistogram::bucket_index(std::int64_t{1} << 62),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, PercentileErrorBoundVsExactSort) {
  // The documented contract: for the recorded value v at the nearest-rank
  // position, v <= percentile(q) <= v * (1 + 2^-kSubBits) + 1. Check it
  // against an exact sorted computation over log-uniform random draws —
  // the regime latencies actually live in.
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> log_range(0.0, 21.0);  // [1, 2^21] ns
  LatencyHistogram h;
  std::vector<std::int64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const auto v = static_cast<std::int64_t>(std::exp2(log_range(rng)));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.count, values.size());
  for (const double q : {0.50, 0.95, 0.99}) {
    const std::size_t rank = std::min(
        values.size() - 1,
        static_cast<std::size_t>(std::ceil(q * values.size())) - 1);
    const auto exact = static_cast<double>(values[rank]);
    const double approx = s.percentile(q);
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx, exact * (1.0 + 1.0 / LatencyHistogram::kSubBuckets) + 1)
        << "q=" << q;
  }
  EXPECT_LE(s.percentile(1.0), values.back());
}

TEST(LatencyHistogram, ThreadedRecordPreservesEveryCount) {
  // N threads x M records: nothing is lost and the sum is exact —
  // fetch_add on relaxed atomics, no read-modify-write races. This is the
  // test the TSan lane leans on for the lock-free claim.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  LatencyHistogram h;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(t * kPerThread + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  const std::int64_t n = std::int64_t{kThreads} * kPerThread;
  EXPECT_EQ(s.sum, n * (n - 1) / 2);
  EXPECT_EQ(s.max, n - 1);
  std::uint64_t bucket_total = 0;
  for (const auto& [upper, count] : s.buckets) bucket_total += count;
  EXPECT_EQ(bucket_total, s.count);
}

// ---------------------------------------------------------------- counter

TEST(Counter, ThreadedIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  c.inc(42);
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread + 42);
}

// --------------------------------------------------------------- registry

TEST(MetricsRegistry, SameNameAndLabelsResolveToOneInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("pp_test_total", {{"k", "v"}, {"x", "y"}});
  // Label order must not matter: the set is canonicalized (sorted by key).
  Counter& b = registry.counter("pp_test_total", {{"x", "y"}, {"k", "v"}});
  EXPECT_EQ(&a, &b);
  Counter& other = registry.counter("pp_test_total", {{"k", "w"}, {"x", "y"}});
  EXPECT_NE(&a, &other);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistry, KindConflictThrows) {
  MetricsRegistry registry;
  registry.counter("pp_conflict", {{"a", "1"}});
  // Same family, different kind — even under different labels.
  EXPECT_THROW(registry.histogram("pp_conflict", {{"a", "2"}}),
               std::invalid_argument);
  EXPECT_THROW(registry.histogram("pp_conflict"), std::invalid_argument);
  // Same (name, labels), same kind: fine, returns the same instrument.
  EXPECT_NO_THROW(registry.counter("pp_conflict", {{"a", "1"}}));
}

TEST(MetricsRegistry, ValidatesNamesAndLabelKeys) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.counter("0starts_with_digit"), std::invalid_argument);
  EXPECT_THROW(registry.counter("has space"), std::invalid_argument);
  EXPECT_THROW(registry.counter(""), std::invalid_argument);
  EXPECT_THROW(registry.counter("pp_ok", {{"bad-key", "v"}}),
               std::invalid_argument);
  EXPECT_THROW(registry.counter("pp_ok", {{"", "v"}}), std::invalid_argument);
  EXPECT_THROW(registry.counter("pp_ok", {{"dup", "a"}, {"dup", "b"}}),
               std::invalid_argument);
  // Label VALUES are free-form (the exporters escape them).
  EXPECT_NO_THROW(registry.counter("pp_ok", {{"key", "with \"quotes\"\n"}}));
  EXPECT_NO_THROW(registry.counter("pp:colons_ok"));
}

TEST(MetricsRegistry, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.counter("pp_b_total").inc(2);
  Collector gauge =
      registry.collect({}, [](const Emit& emit) { emit("pp_a_gauge", 1.5); });
  registry.histogram("pp_c_ns", {{"stage", "x"}}).record(100);
  registry.histogram("pp_c_ns", {{"stage", "a"}}).record(200);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "pp_a_gauge");
  EXPECT_EQ(snap[0].kind, MetricKind::kGauge);
  EXPECT_EQ(snap[0].value, 1.5);
  EXPECT_EQ(snap[1].name, "pp_b_total");
  EXPECT_EQ(snap[1].value, 2.0);
  // Within a family, label-sorted: stage=a before stage=x.
  EXPECT_EQ(snap[2].name, "pp_c_ns");
  EXPECT_EQ(snap[2].labels[0].second, "a");
  EXPECT_EQ(snap[2].hist.count, 1u);
  EXPECT_EQ(snap[3].labels[0].second, "x");
}

// ------------------------------------------------------------ collectors

/// Value of the (name, labels) series in `snap`, or -1 when absent.
double series(const std::vector<MetricSnapshot>& snap, const std::string& name,
              const MetricsRegistry::Labels& labels) {
  for (const auto& m : snap) {
    if (m.name == name && m.labels == labels) return m.value;
  }
  return -1;
}

TEST(Collectors, EqualSeriesSumWhileTheirHandlesLive) {
  MetricsRegistry registry;
  Collector base = registry.collect({{"lane", "0"}}, [](const Emit& emit) {
    emit("pp_depth", 1);
  });
  Collector a = registry.collect({{"lane", "0"}}, [](const Emit& emit) {
    emit("pp_depth", 2);
  });
  auto b = std::make_unique<Collector>(
      registry.collect({}, [](const Emit& emit) { emit("pp_depth", 7); }));
  Collector c = registry.collect({{"lane", "0"}}, [](const Emit& emit) {
    emit("pp_depth", 3);
  });
  auto snap = registry.snapshot();
  EXPECT_EQ(series(snap, "pp_depth", {{"lane", "0"}}), 6.0);
  EXPECT_EQ(series(snap, "pp_depth", {}), 7.0);
  EXPECT_EQ(snap.size(), 2u);  // one series per (name, labels)

  b.reset();
  Collector moved = std::move(c);  // still registered, once
  snap = registry.snapshot();
  EXPECT_EQ(series(snap, "pp_depth", {{"lane", "0"}}), 6.0);
  EXPECT_EQ(series(snap, "pp_depth", {}), -1.0);

  a = Collector();  // overwriting a handle unregisters it
  moved = Collector();
  snap = registry.snapshot();
  EXPECT_EQ(series(snap, "pp_depth", {{"lane", "0"}}), 1.0);
  EXPECT_EQ(snap.size(), 1u);
}

TEST(Collectors, ValidateLabelsNamesAndFamilyKind) {
  MetricsRegistry registry;
  EXPECT_THROW(
      (void)registry.collect({{"bad-key", "v"}}, [](const Emit&) {}),
      std::invalid_argument);
  {
    Collector bad_name = registry.collect(
        {}, [](const Emit& emit) { emit("has space", 1); });
    EXPECT_THROW(registry.snapshot(), std::invalid_argument);
  }
  registry.counter("pp_requests_total").inc();
  Collector clash = registry.collect(
      {{"code", "200"}}, [](const Emit& emit) { emit("pp_requests_total", 1); });
  EXPECT_THROW(registry.snapshot(), std::logic_error);
}

TEST(Collectors, RunUnderNoRegistryLockAndUnregisterWaitsOnlyForItsOwnCall) {
  using namespace std::chrono_literals;
  MetricsRegistry registry;
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto blocking = std::make_unique<Collector>(
      registry.collect({}, [&, released](const Emit& emit) {
        entered.set_value();
        released.wait();
        emit("pp_blocked", 1);
      }));
  auto scrape = std::async(std::launch::async,
                           [&registry] { return registry.snapshot(); });
  entered.get_future().wait();

  // The collector is mid-call: instruments and other collectors can still
  // be created and destroyed.
  auto others = std::async(std::launch::async, [&registry] {
    registry.counter("pp_created_total").inc();
    Collector other =
        registry.collect({}, [](const Emit& emit) { emit("pp_other", 1); });
  });
  EXPECT_EQ(others.wait_for(30s), std::future_status::ready);

  // Its own handle waits for the call in flight.
  auto destroy =
      std::async(std::launch::async, [&blocking] { blocking.reset(); });
  EXPECT_EQ(destroy.wait_for(50ms), std::future_status::timeout);
  release.set_value();
  EXPECT_EQ(destroy.wait_for(30s), std::future_status::ready);
  const auto snap = scrape.get();
  EXPECT_EQ(series(snap, "pp_blocked", {}), 1.0);
  EXPECT_EQ(series(registry.snapshot(), "pp_blocked", {}), -1.0);
}

// ------------------------------------------------------ timing switches

TEST(Sampling, PeriodOneSamplesEveryTick) {
  const std::uint32_t saved = sample_period();
  const bool was_enabled = timing_enabled();
  set_timing_enabled(true);
  set_sample_period(1);
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(sample_tick());
  set_sample_period(4);
  int sampled = 0;
  for (int i = 0; i < 400; ++i) sampled += sample_tick() ? 1 : 0;
  EXPECT_EQ(sampled, 100);
  set_timing_enabled(false);
  EXPECT_FALSE(sample_tick());
  set_sample_period(saved);
  set_timing_enabled(was_enabled);
}

TEST(ScopedTimerTest, DisarmedTimerRecordsNothing) {
  const bool was_enabled = timing_enabled();
  LatencyHistogram h;
  { ScopedTimer timer(nullptr); }  // null target: no-op
  set_timing_enabled(false);
  { ScopedTimer timer(&h); }  // timing off: disarmed
  EXPECT_EQ(h.snapshot().count, 0u);
  set_timing_enabled(true);
  { ScopedTimer timer(&h); }
  EXPECT_EQ(h.snapshot().count, 1u);
  set_timing_enabled(was_enabled);
}

TEST(TraceSpanTest, StagesTileTheWall) {
  const std::uint32_t saved = sample_period();
  const bool was_enabled = timing_enabled();
  set_timing_enabled(true);
  set_sample_period(1);
  LatencyHistogram stage_a;
  LatencyHistogram stage_b;
  LatencyHistogram wall;
  {
    TraceSpan span({&stage_a, &stage_b}, &wall);
    EXPECT_TRUE(span.sampled());
    EXPECT_TRUE(SampledSection::active());
    span.stage_begin();
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
    span.stage_add(0);
    for (int i = 0; i < 1000; ++i) sink = sink + i;
    span.stage_add(1);
  }
  EXPECT_FALSE(SampledSection::active());
  const auto sa = stage_a.snapshot();
  const auto sb = stage_b.snapshot();
  const auto sw = wall.snapshot();
  ASSERT_EQ(sa.count, 1u);
  ASSERT_EQ(sb.count, 1u);
  ASSERT_EQ(sw.count, 1u);
  // The stages are laps of the same span: their sum cannot exceed the
  // wall (the wall additionally covers the construction gap before
  // stage_begin and the record() calls themselves).
  EXPECT_LE(sa.sum + sb.sum, sw.sum);
  set_sample_period(saved);
  set_timing_enabled(was_enabled);
}

// -------------------------------------------------------------- exporters

TEST(Exporters, JsonIsWellFormedAndComplete) {
  MetricsRegistry registry;
  registry.counter("pp_requests_total", {{"code", "200"}}).inc(7);
  Collector depth =
      registry.collect({}, [](const Emit& emit) { emit("pp_depth", 2.5); });
  auto& h = registry.histogram("pp_lat_ns", {{"stage", "a\"b\\c\n"}});
  h.record(100);
  h.record(200);
  const std::string json = render_json(registry);
  // Structural sanity without a JSON parser: balanced braces/brackets and
  // the expected scalar fields present.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"pp_requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"pp_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"gauge\", \"value\": 2.5"),
            std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  // The quote, backslash and newline in the label value must be escaped —
  // a raw one would break the document.
  EXPECT_NE(json.find("a\\\"b\\\\c\\n"), std::string::npos);
}

TEST(Exporters, PrometheusExpositionFormatIsValid) {
  MetricsRegistry registry;
  registry.counter("pp_requests_total", {{"code", "200"}}).inc(3);
  registry.counter("pp_requests_total", {{"code", "500"}}).inc(1);
  Collector depth =
      registry.collect({}, [](const Emit& emit) { emit("pp_depth", 4.0); });
  auto& h = registry.histogram("pp_lat_ns");
  h.record(5);
  h.record(5000);
  h.record(500000);
  const std::string text = render_prometheus(registry);

  // Exactly one # TYPE line per family, even with multiple label sets.
  std::size_t type_requests = 0, pos = 0;
  while ((pos = text.find("# TYPE pp_requests_total", pos)) !=
         std::string::npos) {
    ++type_requests;
    pos += 1;
  }
  EXPECT_EQ(type_requests, 1u);
  EXPECT_NE(text.find("# TYPE pp_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pp_depth gauge\npp_depth 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pp_lat_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("pp_requests_total{code=\"200\"} 3"), std::string::npos);

  // Histogram series: cumulative _bucket counts are monotone
  // non-decreasing, terminated by le="+Inf" == _count, plus _sum.
  std::uint64_t prev = 0;
  bool saw_bucket = false;
  std::size_t line_start = 0;
  while (line_start < text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = text.size();
    const std::string line = text.substr(line_start, line_end - line_start);
    if (line.rfind("pp_lat_ns_bucket", 0) == 0) {
      saw_bucket = true;
      const std::size_t space = line.rfind(' ');
      const std::uint64_t cumulative = std::stoull(line.substr(space + 1));
      EXPECT_GE(cumulative, prev) << line;
      prev = cumulative;
    }
    line_start = line_end + 1;
  }
  EXPECT_TRUE(saw_bucket);
  EXPECT_NE(text.find("pp_lat_ns_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("pp_lat_ns_count 3"), std::string::npos);
  EXPECT_NE(text.find("pp_lat_ns_sum 505005"), std::string::npos);
  // Every line is a comment or a `name{labels} value` sample — no blank
  // line in the middle, final newline present.
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(text.find("\n\n"), std::string::npos);
}

TEST(Exporters, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry.counter("pp_esc_total", {{"path", "a\\b\"c\nd"}}).inc(1);
  const std::string text = render_prometheus(registry);
  EXPECT_NE(text.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos);
}

}  // namespace
}  // namespace pp::obs
