#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>

namespace pp::obs {

// ---------------------------------------------------------------------------
// Timing switches.

namespace {

bool env_disabled() {
  // Read once at startup (before threads that would race on the
  // environment). Same pattern and justification as cpu_dispatch.cpp.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* v = std::getenv("PP_OBS_DISABLED");
  return v != nullptr && v[0] == '1' && v[1] == '\0';
}

std::uint32_t env_sample_period() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* v = std::getenv("PP_OBS_SAMPLE_PERIOD");
  if (v == nullptr) return 16;
  const long parsed = std::strtol(v, nullptr, 10);
  return parsed >= 1 ? static_cast<std::uint32_t>(parsed) : 1;
}

std::atomic<bool>& timing_flag() {
  static std::atomic<bool> flag{!env_disabled()};
  return flag;
}

std::atomic<std::uint32_t>& period_value() {
  static std::atomic<std::uint32_t> period{env_sample_period()};
  return period;
}

}  // namespace

bool timing_enabled() {
  return timing_flag().load(std::memory_order_relaxed);
}

void set_timing_enabled(bool enabled) {
  timing_flag().store(enabled, std::memory_order_relaxed);
}

std::uint32_t sample_period() {
  return period_value().load(std::memory_order_relaxed);
}

void set_sample_period(std::uint32_t period) {
  period_value().store(period < 1 ? 1 : period, std::memory_order_relaxed);
}

bool sample_tick() {
  if (!timing_enabled()) return false;
  thread_local std::uint32_t tick = 0;
  const std::uint32_t period = sample_period();
  if (++tick >= period) {
    tick = 0;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Counter.

std::size_t Counter::shard_index() {
  // The address of a thread_local object is distinct per thread and stable
  // for the thread's lifetime; fold its cache-line number into a shard.
  thread_local char tag = 0;
  const auto addr = reinterpret_cast<std::uintptr_t>(&tag);
  return static_cast<std::size_t>((addr >> 6) % kShards);
}

// ---------------------------------------------------------------------------
// LatencyHistogram.

std::size_t LatencyHistogram::bucket_index(std::int64_t value) {
  const auto v = static_cast<std::uint64_t>(value < 0 ? 0 : value);
  if (v < static_cast<std::uint64_t>(kSubBuckets)) {
    return static_cast<std::size_t>(v);  // exact, width-1 buckets
  }
  const int exponent = std::bit_width(v) - 1;  // >= kSubBits
  if (exponent >= kMaxExponent) return kBuckets - 1;
  // Top kSubBits bits below the leading bit select the sub-bucket.
  const auto sub =
      static_cast<std::size_t>((v >> (exponent - kSubBits)) - kSubBuckets);
  return static_cast<std::size_t>(exponent - kSubBits) * kSubBuckets + sub +
         kSubBuckets;
}

std::int64_t LatencyHistogram::bucket_upper(std::size_t index) {
  if (index < kSubBuckets) return static_cast<std::int64_t>(index);
  const std::size_t octave = (index - kSubBuckets) / kSubBuckets;
  const std::size_t sub = (index - kSubBuckets) % kSubBuckets;
  const int exponent = static_cast<int>(octave) + kSubBits;
  // Bucket [lo, hi] where lo = (kSubBuckets + sub) << (exponent - kSubBits).
  const std::uint64_t lo = (static_cast<std::uint64_t>(kSubBuckets) + sub)
                           << (exponent - kSubBits);
  const std::uint64_t width = std::uint64_t{1} << (exponent - kSubBits);
  return static_cast<std::int64_t>(lo + width - 1);
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot snap;
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    snap.count += n;
    snap.buckets.emplace_back(bucket_upper(i), n);
  }
  return snap;
}

double HistogramSnapshot::percentile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample, 1-based nearest-rank definition.
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t seen = 0;
  for (const auto& [upper, n] : buckets) {
    seen += n;
    if (seen >= rank) {
      // Clamp to the observed max so p100 is exact and the top (clamping)
      // bucket cannot over-report.
      return static_cast<double>(std::min(upper, max));
    }
  }
  return static_cast<double>(max);
}

// ---------------------------------------------------------------------------
// MetricsRegistry.

namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool valid_label_key(std::string_view key) {
  if (key.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(key[0])) return false;
  for (char c : key.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

void check_name(std::string_view name) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("obs: invalid metric name: " +
                                std::string(name));
  }
}

/// Sorts by key and validates: the one canonical form of a label set.
MetricsRegistry::Labels canonical(MetricsRegistry::Labels labels) {
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (!valid_label_key(labels[i].first)) {
      throw std::invalid_argument("obs: invalid label key: " +
                                  labels[i].first);
    }
    if (i > 0 && labels[i - 1].first == labels[i].first) {
      throw std::invalid_argument("obs: duplicate label key: " +
                                  labels[i].first);
    }
  }
  return labels;
}

}  // namespace

MetricsRegistry::Entry& MetricsRegistry::get_or_create(std::string_view name,
                                                       Labels labels,
                                                       MetricKind kind) {
  check_name(name);
  labels = canonical(std::move(labels));

  // Canonical key: name \x1f k \x1e v \x1f k \x1e v ... (separators cannot
  // appear in valid names/keys, and make distinct label sets distinct keys).
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }

  MutexLock lock(mutex_);
  auto [kind_it, kind_inserted] =
      family_kind_.emplace(std::string(name), kind);
  if (!kind_inserted && kind_it->second != kind) {
    throw std::invalid_argument("obs: metric family '" + std::string(name) +
                                "' already registered as " +
                                kind_name(kind_it->second) +
                                ", requested as " + kind_name(kind));
  }
  auto [it, inserted] = entries_.try_emplace(std::move(key));
  Entry& entry = it->second;
  if (inserted) {
    entry.kind = kind;
    entry.name = std::string(name);
    entry.labels = std::move(labels);
    if (kind == MetricKind::kCounter) {
      entry.counter = std::make_unique<Counter>();
    } else {
      entry.histogram = std::make_unique<LatencyHistogram>();
    }
  }
  return entry;
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  return *get_or_create(name, std::move(labels), MetricKind::kCounter).counter;
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name,
                                             Labels labels) {
  return *get_or_create(name, std::move(labels), MetricKind::kHistogram)
              .histogram;
}

struct Collector::Slot {
  Slot(MetricsRegistry::Labels l, CollectFn f)
      : labels(std::move(l)), fn(std::move(f)) {}

  const MetricsRegistry::Labels labels;
  /// Held while fn runs; unregistration empties fn under it.
  Mutex mutex;
  CollectFn fn PP_GUARDED_BY(mutex);
};

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  std::vector<MetricSnapshot> out;
  {
    MutexLock lock(mutex_);
    out.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      MetricSnapshot snap;
      snap.name = entry.name;
      snap.labels = entry.labels;
      snap.kind = entry.kind;
      if (entry.kind == MetricKind::kCounter) {
        snap.value = static_cast<double>(entry.counter->value());
      } else {
        snap.hist = entry.histogram->snapshot();
      }
      out.push_back(std::move(snap));
    }
  }
  std::vector<std::shared_ptr<Collector::Slot>> slots;
  {
    MutexLock lock(collectors_mutex_);
    slots = collectors_;
  }
  for (const auto& slot : slots) {
    MutexLock lock(slot->mutex);
    if (!slot->fn) continue;  // unregistered since the copy
    slot->fn([&](std::string_view name, double value) {
      check_name(name);
      MetricSnapshot& snap = out.emplace_back();
      snap.name = std::string(name);
      snap.labels = slot->labels;
      snap.kind = MetricKind::kGauge;
      snap.value = value;
    });
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  // Fold equal (name, labels) series into one sum. Only gauges can repeat:
  // instruments are unique per key, and collected series are gauges.
  std::size_t kept = 0;
  for (MetricSnapshot& snap : out) {
    if (kept > 0 && out[kept - 1].name == snap.name) {
      MetricSnapshot& prev = out[kept - 1];
      if (prev.kind != snap.kind) {
        throw std::logic_error("obs: metric family '" + snap.name +
                               "' is both " + kind_name(prev.kind) +
                               " and " + kind_name(snap.kind));
      }
      if (prev.labels == snap.labels) {
        prev.value += snap.value;
        continue;
      }
    }
    if (&out[kept] != &snap) out[kept] = std::move(snap);
    ++kept;
  }
  out.resize(kept);
  return out;
}

// ---------------------------------------------------------------------------
// Collectors.

Collector MetricsRegistry::collect(Labels labels, CollectFn fn) {
  auto slot =
      std::make_shared<Collector::Slot>(canonical(std::move(labels)),
                                        std::move(fn));
  MutexLock lock(collectors_mutex_);
  collectors_.push_back(slot);
  return Collector(this, std::move(slot));
}

void MetricsRegistry::unregister(
    const std::shared_ptr<Collector::Slot>& slot) {
  {
    MutexLock lock(collectors_mutex_);
    std::erase(collectors_, slot);
  }
  // A snapshot that copied the slot before the erase may be running it:
  // wait for that call, and leave nothing for a later one to run.
  MutexLock lock(slot->mutex);
  slot->fn = nullptr;
}

Collector& Collector::operator=(Collector&& other) noexcept {
  if (this != &other) {
    reset();
    registry_ = other.registry_;
    slot_ = std::move(other.slot_);
  }
  return *this;
}

void Collector::reset() {
  if (slot_ == nullptr) return;
  registry_->unregister(slot_);
  slot_.reset();
}

std::size_t MetricsRegistry::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

// ---------------------------------------------------------------------------
// Timing helpers.

constinit thread_local bool SampledSection::active_ = false;

TraceSpan::TraceSpan(std::initializer_list<LatencyHistogram*> stages,
                     LatencyHistogram* total)
    : sampled_(sample_tick()), section_(sampled_), total_(total) {
  for (LatencyHistogram* stage : stages) {
    if (num_stages_ < kMaxStages) stages_[num_stages_++] = stage;
  }
  if (sampled_) {
    wall_.reset();
    lap_.reset();
  }
}

TraceSpan::~TraceSpan() {
  if (!sampled_) return;
  const std::int64_t wall_ns = wall_.elapsed_ns();
  for (std::size_t i = 0; i < num_stages_; ++i) {
    if (stages_[i] != nullptr) stages_[i]->record(acc_[i]);
  }
  if (total_ != nullptr) total_->record(wall_ns);
}

}  // namespace pp::obs
