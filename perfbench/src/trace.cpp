#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "measure.hpp"

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last. A fixed array, so
// tracing never allocates (allocations are counted per decision).
constexpr int kMaxDepth = 16;
thread_local std::int32_t t_open[kMaxDepth];
thread_local int t_depth = 0;

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kService: return "serving.service";
    case Layer::kPolicy: return "serving.policy";
    case Layer::kKv: return "serving.kv";
    case Layer::kIngest: return "ingest";
    case Layer::kStorage: return "storage";
    case Layer::kOnline: return "online";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : buf_(capacity) {}

std::int32_t Tracer::open(Layer layer, const char* op, std::uint64_t session,
                          std::int32_t fallback_parent) {
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= buf_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span& s = buf_[i];
  s.op = op;
  s.layer = layer;
  s.parent = t_depth == 0 ? fallback_parent : t_open[t_depth - 1];
  s.session = session != 0 || s.parent < 0 ? session : buf_[s.parent].session;
  if (t_depth < kMaxDepth) t_open[t_depth++] = static_cast<std::int32_t>(i);
  s.start = now_ns();
  return static_cast<std::int32_t>(i);
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  buf_[index].end = now_ns();
  if (t_depth > 0 && t_open[t_depth - 1] == index) --t_depth;
}

std::int32_t Tracer::record(Layer layer, const char* op, std::int64_t start,
                            std::int64_t end, std::int32_t parent) {
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= buf_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  buf_[i] = Span{op, layer, start, end, parent, 0};
  return static_cast<std::int32_t>(i);
}

void Tracer::set_end(std::int32_t index, std::int64_t end) {
  if (index >= 0) buf_[index].end = end;
}

std::vector<Span> Tracer::spans() const {
  const std::size_t n = std::min(next_.load(), buf_.size());
  return {buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n)};
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  const std::size_t n = spans.size();
  // Children grouped by parent (counting sort on the parent index).
  std::vector<std::size_t> first(n + 1, 0);
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < n) {
      ++first[static_cast<std::size_t>(s.parent) + 1];
    }
  }
  for (std::size_t i = 0; i < n; ++i) first[i + 1] += first[i];
  std::vector<std::size_t> children(first[n]);
  std::vector<std::size_t> fill(first.begin(), first.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < n) {
      children[fill[static_cast<std::size_t>(p)]++] = i;
    }
  }

  std::vector<std::int64_t> self(n);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t lo = spans[i].start;
    const std::int64_t hi = spans[i].end;
    cover.clear();
    for (std::size_t c = first[i]; c < first[i + 1]; ++c) {
      const Span& child = spans[children[c]];
      const std::int64_t a = std::max(child.start, lo);
      const std::int64_t b = std::min(child.end, hi);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max<std::int64_t>(0, hi - lo) - covered;
  }
  return self;
}

std::vector<OpTotals> op_totals(const std::vector<Span>& spans,
                                const std::vector<std::int64_t>& self) {
  std::vector<OpTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto it = std::find_if(totals.begin(), totals.end(),
                           [&](const OpTotals& t) { return t.op == s.op; });
    if (it == totals.end()) {
      totals.push_back(OpTotals{s.op, s.layer});
      it = totals.end() - 1;
    }
    ++it->count;
    it->total_ns += s.end - s.start;
    it->self_ns += self[i];
  }
  return totals;
}

bool write_span_dump(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
  std::fprintf(f, "index,op,layer,start_ns,end_ns,parent,session\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu,%s,%s,%lld,%lld,%d,%llu\n", i, s.op,
                 layer_name(s.layer), static_cast<long long>(s.start - t0),
                 static_cast<long long>(s.end - t0), s.parent,
                 static_cast<unsigned long long>(s.session));
  }
  return std::fclose(f) == 0;
}

std::optional<std::vector<std::uint8_t>> SeamKvStore::get(
    const std::string& key) {
  SpanScope span(tracer_, Layer::kKv, "serving.kv.get");
  return inner_->get(key);
}

void SeamKvStore::put(const std::string& key,
                      std::vector<std::uint8_t> value) {
  SpanScope span(tracer_, Layer::kKv, "serving.kv.put");
  inner_->put(key, std::move(value));
}

void SeamPolicy::note_score_call(std::size_t sessions) {
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  pp::MutexLock lock(mu_);
  ++counts_.score_calls;
  counts_.sessions_scored += sessions;
  if (std::find(group_thread_ids_.begin(), group_thread_ids_.end(), tid) ==
      group_thread_ids_.end()) {
    group_thread_ids_.push_back(tid);
  }
}

double SeamPolicy::score_session(std::uint64_t user_id, std::int64_t t,
                                 std::span<const std::uint32_t> context) {
  double score = 0;
  {
    SpanScope span(tracer_, Layer::kPolicy, "serving.policy.score", 0,
                   root_parent_);
    score = inner_->score_session(user_id, t, context);
  }
  note_score_call(1);
  return score;
}

std::vector<double> SeamPolicy::score_sessions(
    std::span<const pp::serving::SessionStart> sessions) {
  std::vector<double> scores;
  {
    SpanScope span(tracer_, Layer::kPolicy, "serving.policy.score",
                   sessions.size() == 1 ? sessions.front().session_id : 0,
                   root_parent_);
    scores = inner_->score_sessions(sessions);
  }
  if (log_ != nullptr) {
    const std::int64_t stamp = now_ns();
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const std::uint64_t id = sessions[i].session_id;
      if (id < log_->score.size()) {
        log_->score[id] = scores[i];
        log_->stamp_ns[id] = stamp;
      }
    }
  }
  note_score_call(sessions.size());
  return scores;
}

void SeamPolicy::on_session_complete(const pp::serving::JoinedSession& joined) {
  SpanScope span(tracer_, Layer::kPolicy, "serving.policy.update",
                 joined.session_id, root_parent_);
  inner_->on_session_complete(joined);
}

void SeamPolicy::begin_batch() {
  {
    pp::SerialSection serial(inner_->serial_token());
    inner_->begin_batch();
  }
  pp::MutexLock lock(mu_);
  if (!group_thread_ids_.empty()) {
    ++counts_.groups;
    counts_.group_threads += group_thread_ids_.size();
    group_thread_ids_.clear();
  }
}

}  // namespace perfbench
