// Process-wide metrics layer: typed instruments (Counter / LatencyHistogram)
// addressed by name + static label set through a MetricsRegistry,
// collectors that read a live component's *Stats as gauge series at
// snapshot time, plus the timing helpers (ScopedTimer / TraceSpan /
// SampledSection) that instrument the serving hot path as named stages.
//
// Observe-only contract:
//   * Recording NEVER blocks the recorded path: Counter::inc and
//     LatencyHistogram::record are lock-free (relaxed atomics). The registry
//     mutex is taken only on instrument *creation* (once per name+labels,
//     cached by callers) and on snapshot/export. A collector reads its
//     owner's counters under the owner's own short lock, only at snapshot.
//   * Instruments never feed back into decisions — nothing in src/ reads a
//     metric to choose a code path, so the bit-identical replay tests pass
//     unchanged with instrumentation enabled.
//   * Hot-path timing is sampled (1-in-N per thread, PP_OBS_SAMPLE_PERIOD,
//     default 16) and can be disabled entirely (PP_OBS_DISABLED=1); sampling
//     state is thread-local so it cannot perturb cross-thread scheduling.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/stopwatch.hpp"

namespace pp::obs {

// ---------------------------------------------------------------------------
// Global timing switches (read once from the environment, overridable for
// tests/benches).

/// False when PP_OBS_DISABLED=1: every ScopedTimer/TraceSpan disarms and
/// sample_tick() always returns false. Counters stay live — they are
/// O(1 relaxed add) and the bench overhead budget is about clock reads.
bool timing_enabled();
void set_timing_enabled(bool enabled);

/// 1-in-N per-thread sampling period for hot-path timing (default 16,
/// env PP_OBS_SAMPLE_PERIOD). Period 1 times every call (tests use this).
std::uint32_t sample_period();
void set_sample_period(std::uint32_t period);

/// Advances this thread's sample counter; true on the sampled tick (and
/// always false when !timing_enabled()).
bool sample_tick();

// ---------------------------------------------------------------------------
// Instruments. All are address-stable once created (the registry hands out
// references that stay valid for the registry's lifetime) and safe to use
// from any thread.

/// Monotonic counter, sharded over cache lines so concurrent inc() from many
/// threads doesn't ping-pong one line. Reads are racy-exact: value() sums
/// relaxed loads, exact once writers quiesce.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };

  // Per-thread shard picked from the address of a thread_local tag —
  // stable per thread, no <thread> dependency (src-lint bans it).
  static std::size_t shard_index();

  Shard shards_[kShards];
};

/// Merged view of one histogram at one instant. Buckets are non-cumulative
/// (upper-bound, count) pairs with zero-count buckets omitted.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t max = 0;
  std::vector<std::pair<std::int64_t, std::uint64_t>> buckets;

  /// Upper bound of the bucket holding the rank-q sample, clamped to the
  /// observed max: for a recorded value v at that rank,
  /// v <= percentile(q) <= v * (1 + 2^-kSubBits) (+1 ns rounding).
  double percentile(double q) const;
  double p50() const { return percentile(0.50); }
  double p95() const { return percentile(0.95); }
  double p99() const { return percentile(0.99); }
  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

/// Fixed-size log-bucketed histogram of non-negative int64 values
/// (nanoseconds by convention; any magnitude works). record() is wait-free —
/// one relaxed fetch_add into the bucket, one into the sum, a relaxed CAS
/// loop for the max. Buckets: exact below 2^kSubBits, then 2^kSubBits
/// sub-buckets per octave, so relative bucket width (and thus worst-case
/// percentile error) is bounded by 2^-kSubBits = 12.5%. 320 buckets cover
/// [0, 2^42) ns ≈ 1.2 hours; larger values clamp into the last bucket.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 8 per octave
  static constexpr int kMaxExponent = 42;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>((kMaxExponent - kSubBits) * kSubBuckets) +
      kSubBuckets;  // 320

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void record(std::int64_t value) {
    if (value < 0) value = 0;
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot snapshot() const;

  /// Bucket for a value; inclusive upper bound of a bucket. Exposed for the
  /// correctness tests and the cumulative-bucket exporter.
  static std::size_t bucket_index(std::int64_t value);
  static std::int64_t bucket_upper(std::size_t index);

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> max_{0};
};

// ---------------------------------------------------------------------------
// Registry.

/// kGauge is every collected series (see MetricsRegistry::collect).
enum class MetricKind { kCounter, kGauge, kHistogram };

struct MetricSnapshot {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;  // sorted by key
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;       // counter / gauge
  HistogramSnapshot hist;   // histogram
};

/// Sink of one collector call: emit(name, value) reports one gauge series
/// under the collector's labels.
using Emit = std::function<void(std::string_view name, double value)>;
using CollectFn = std::function<void(const Emit& emit)>;

class MetricsRegistry;

/// Handle of one MetricsRegistry::collect() registration. Move-only;
/// destroying or overwriting it unregisters the collector, waiting only for
/// an in-flight call of this same collector. Owners keep it as their last
/// member, so it is destroyed first and the collector never reads a
/// half-destroyed owner. It must not outlive its registry.
class Collector {
 public:
  Collector() = default;
  Collector(Collector&& other) noexcept = default;
  Collector& operator=(Collector&& other) noexcept;
  ~Collector() { reset(); }

 private:
  friend class MetricsRegistry;
  struct Slot;
  Collector(MetricsRegistry* registry, std::shared_ptr<Slot> slot)
      : registry_(registry), slot_(std::move(slot)) {}
  void reset();

  MetricsRegistry* registry_ = nullptr;
  std::shared_ptr<Slot> slot_;
};

/// Name + label-set → instrument. Lookup takes the registry mutex, so
/// callers on hot paths resolve their instruments ONCE (constructor or
/// function-local static) and keep the reference; the reference stays valid
/// for the registry's lifetime (instruments are heap-allocated, the map only
/// stores owning pointers).
///
/// Names must match [a-zA-Z_:][a-zA-Z0-9_:]* and label keys
/// [a-zA-Z_][a-zA-Z0-9_]* (Prometheus rules). One name = one kind: asking
/// for the same family with a different instrument kind throws.
class MetricsRegistry {
 public:
  /// Label set, e.g. {{"stage", "kv_get"}, {"precision", "f32"}}. Stored
  /// sorted by key; order in the argument doesn't matter.
  using Labels = std::vector<std::pair<std::string, std::string>>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, Labels labels = {});
  LatencyHistogram& histogram(std::string_view name, Labels labels = {});

  /// Runs `fn` at every snapshot() while the returned handle lives; each
  /// emit(name, value) is one gauge series under `labels`. Series of equal
  /// name and labels (several live components) are summed. `fn` runs under
  /// no registry lock, so it may take its owner's short lock; it must not
  /// destroy its own handle.
  [[nodiscard]] Collector collect(Labels labels, CollectFn fn)
      PP_EXCLUDES(collectors_mutex_);

  /// Point-in-time copy of every instrument and collected series, sorted by
  /// (name, labels) so exporters emit families contiguously.
  std::vector<MetricSnapshot> snapshot() const
      PP_EXCLUDES(mutex_, collectors_mutex_);

  std::size_t size() const PP_EXCLUDES(mutex_);

  /// The process-wide registry every instrumented subsystem uses.
  /// Constructed on first use and never destroyed, so a component in
  /// static storage (a thread pool, a store) may unregister at exit.
  static MetricsRegistry& global();

 private:
  struct Entry {
    MetricKind kind;
    std::string name;
    std::vector<std::pair<std::string, std::string>> labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  friend class Collector;

  Entry& get_or_create(std::string_view name, Labels labels, MetricKind kind)
      PP_EXCLUDES(mutex_);
  void unregister(const std::shared_ptr<Collector::Slot>& slot)
      PP_EXCLUDES(collectors_mutex_);

  mutable Mutex mutex_;
  std::unordered_map<std::string, Entry> entries_ PP_GUARDED_BY(mutex_);
  std::unordered_map<std::string, MetricKind> family_kind_
      PP_GUARDED_BY(mutex_);
  /// Never held while a collector runs (nor is mutex_): a collector may
  /// take its owner's lock, under which the owner may create instruments,
  /// and registering or unregistering must not wait for other collectors.
  mutable Mutex collectors_mutex_;
  std::vector<std::shared_ptr<Collector::Slot>> collectors_
      PP_GUARDED_BY(collectors_mutex_);
};

// ---------------------------------------------------------------------------
// Timing helpers.

/// Thread-local flag marking "this call tree is the sampled one", so nested
/// instrumentation sites (e.g. RnnModel under RnnPolicy) time exactly the
/// batches the outer TraceSpan timed — stages stay mutually consistent.
class SampledSection {
 public:
  explicit SampledSection(bool sampled) : prev_(active_) { active_ = sampled; }
  ~SampledSection() { active_ = prev_; }
  SampledSection(const SampledSection&) = delete;
  SampledSection& operator=(const SampledSection&) = delete;

  static bool active() { return active_; }

 private:
  // constinit: reads skip the TLS init check UBSan flags at -O2 (null load).
  static constinit thread_local bool active_;
  bool prev_;
};

/// Records elapsed ns into a histogram at scope exit. Pass nullptr (or run
/// with timing disabled) to disarm — a disarmed timer never reads the clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram* hist)
      : hist_(timing_enabled() ? hist : nullptr),
        watch_(Stopwatch::Unstarted{}) {
    if (hist_ != nullptr) watch_.reset();
  }
  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->record(watch_.elapsed_ns());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LatencyHistogram* hist_;
  Stopwatch watch_;
};

/// Multi-stage span for one batch: decides sampling once (sample_tick),
/// publishes it via SampledSection, and accumulates per-stage lap times that
/// tile the wall exactly (lap_ns: consecutive laps share one clock read).
/// At destruction, records each stage's accumulated ns into its histogram
/// and the total wall into `total`. Unsampled spans cost one branch per
/// stage_*() call and zero clock reads.
class TraceSpan {
 public:
  static constexpr std::size_t kMaxStages = 8;

  TraceSpan(std::initializer_list<LatencyHistogram*> stages,
            LatencyHistogram* total);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool sampled() const { return sampled_; }

  /// Marks the start of a stage run (resets the lap clock).
  void stage_begin() {
    if (sampled_) lap_.reset();
  }
  /// Credits the time since the last stage_begin()/stage_add() to stage
  /// `slot` (index into the constructor list) and continues the lap.
  void stage_add(std::size_t slot) {
    if (sampled_) acc_[slot] += lap_.lap_ns();
  }

 private:
  bool sampled_;
  SampledSection section_;
  std::size_t num_stages_ = 0;
  LatencyHistogram* stages_[kMaxStages] = {};
  std::int64_t acc_[kMaxStages] = {};
  LatencyHistogram* total_;
  Stopwatch wall_{Stopwatch::Unstarted{}};
  Stopwatch lap_{Stopwatch::Unstarted{}};
};

}  // namespace pp::obs
