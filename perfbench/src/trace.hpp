// Outside-in tracing for the traced run: spans recorded by the benchmark's
// own code around calls into the library's public seams, kept in one
// preallocated buffer, reduced to per-layer self times after the run.
//
// Seams (decorators assembled in place of the plain components):
//   SeamKvStore  - a serving::KvStore under the HiddenStateStore
//   SeamPolicy   - a PrecomputePolicy around RnnPolicy
// Calls into the service, the bus, the learner and the reopen are timed
// directly at the workload's call sites with SpanScope.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "serving/kv_store.hpp"
#include "serving/precompute_service.hpp"

namespace perfbench {

/// Layers, named after the library's modules.
enum class Layer : std::uint8_t {
  kService,  // serving.service: PrecomputeService + SessionJoiner
  kPolicy,   // serving.policy: RnnPolicy incl. models/train/tensor compute
  kKv,       // serving.kv: KvStore (DurableKvStore in learn_durable)
  kIngest,   // ingest: bus, consumer decode/merge
  kStorage,  // storage: journal, flush, reopen/recovery
  kOnline,   // online: learner rounds
  kCount,
};
const char* layer_name(Layer layer);

struct Span {
  const char* op = "";  // static string, e.g. "serving.kv.get"
  Layer layer = Layer::kService;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint64_t session = 0;
};

/// Spans of one traced pass. Thread-safe append into a buffer sized up
/// front; spans beyond the capacity are counted, not stored.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  /// Opens a span on the calling thread. Its parent is the innermost span
  /// this thread has open, else `fallback_parent`. A zero `session`
  /// inherits the parent's session. Returns -1 when the buffer is full.
  std::int32_t open(Layer layer, const char* op, std::uint64_t session,
                    std::int32_t fallback_parent = -1);
  void close(std::int32_t index);
  /// Records a span whose interval the caller measured itself (e.g. a
  /// thread the benchmark does not run code on). Not pushed as a parent.
  std::int32_t record(Layer layer, const char* op, std::int64_t start,
                      std::int64_t end, std::int32_t parent = -1);
  void set_end(std::int32_t index, std::int64_t end);

  std::vector<Span> spans() const;
  std::uint64_t dropped() const { return dropped_.load(); }

 private:
  std::vector<Span> buf_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span; a null tracer makes it a no-op.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, Layer layer, const char* op,
            std::uint64_t session = 0, std::int32_t fallback_parent = -1)
      : tracer_(tracer),
        index_(tracer != nullptr
                   ? tracer->open(layer, op, session, fallback_parent)
                   : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// Self time of every span: its duration minus the union of the parts of
/// its interval that its direct children cover (children may overlap each
/// other, e.g. when they run on several threads).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

struct OpTotals {
  std::string op;
  Layer layer = Layer::kService;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
/// Per-op totals in first-seen order.
std::vector<OpTotals> op_totals(const std::vector<Span>& spans,
                                const std::vector<std::int64_t>& self);

/// Writes the spans as CSV (index,op,layer,start_ns,end_ns,parent,session),
/// times relative to the first span. Returns false on an I/O error.
bool write_span_dump(const std::string& path, const std::vector<Span>& spans);

/// Where scores and decision times land, indexed by session id (the
/// workloads use dense ids). The policy seam writes one clock read per
/// score call; nothing else is recorded on the untraced path.
struct DecisionLog {
  explicit DecisionLog(std::size_t max_session_id)
      : score(max_session_id + 1, -1.0), stamp_ns(max_session_id + 1, 0) {}
  std::vector<double> score;
  std::vector<std::int64_t> stamp_ns;
};

/// KvStore decorator: times get/put as serving.kv spans.
class SeamKvStore final : public pp::serving::KvStore {
 public:
  SeamKvStore(pp::serving::KvStore& inner, Tracer* tracer)
      : inner_(&inner), tracer_(tracer) {}
  /// Null passes calls through untimed (set-up runs that way).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  std::optional<std::vector<std::uint8_t>> get(
      const std::string& key) override;
  void put(const std::string& key, std::vector<std::uint8_t> value) override;
  bool erase(const std::string& key) override { return inner_->erase(key); }
  bool contains(const std::string& key) const override {
    return inner_->contains(key);
  }
  std::size_t size() const override { return inner_->size(); }
  std::size_t value_bytes() const override { return inner_->value_bytes(); }
  pp::serving::KvStats stats() const override { return inner_->stats(); }
  void reset_stats() override { inner_->reset_stats(); }

 private:
  pp::serving::KvStore* inner_;
  Tracer* tracer_;
};

/// Counts at the policy seam (exact; traced or not).
struct PolicySeamCounts {
  std::uint64_t score_calls = 0;
  std::uint64_t sessions_scored = 0;
  std::uint64_t groups = 0;          // begin_batch windows with scoring
  std::uint64_t group_threads = 0;   // sum over groups of distinct threads
};

/// PrecomputePolicy decorator around RnnPolicy. With a DecisionLog it
/// stamps each score call once and stores scores by session id; with a
/// tracer it records serving.policy spans. Scores pass through unchanged.
class SeamPolicy final : public pp::serving::PrecomputePolicy {
 public:
  SeamPolicy(pp::serving::RnnPolicy& inner, Tracer* tracer, DecisionLog* log)
      : inner_(&inner), tracer_(tracer), log_(log) {}

  /// Null passes calls through untimed (set-up runs that way).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  /// Spans opened on a thread with no open span (the ingest consumer
  /// thread) get this parent.
  void set_root_parent(std::int32_t parent) { root_parent_ = parent; }

  double score_session(std::uint64_t user_id, std::int64_t t,
                       std::span<const std::uint32_t> context) override;
  std::vector<double> score_sessions(
      std::span<const pp::serving::SessionStart> sessions) override;
  void on_session_complete(const pp::serving::JoinedSession& joined) override;
  void begin_batch() override PP_REQUIRES(serial_);
  bool concurrent_safe() const override { return inner_->concurrent_safe(); }
  pp::serving::ServingCostSummary cost_summary() const override {
    return inner_->cost_summary();
  }
  const char* name() const override { return inner_->name(); }

  PolicySeamCounts counts() {
    pp::MutexLock lock(mu_);
    return counts_;
  }

 private:
  void note_score_call(std::size_t sessions);

  pp::serving::RnnPolicy* inner_;
  Tracer* tracer_;
  DecisionLog* log_;
  std::int32_t root_parent_ = -1;
  pp::Mutex mu_;
  PolicySeamCounts counts_ PP_GUARDED_BY(mu_);
  /// Threads that scored since the last begin_batch().
  std::vector<std::uint64_t> group_thread_ids_ PP_GUARDED_BY(mu_);
};

}  // namespace perfbench
