// serve_f32_hot: closed loop, one caller, batch 1, over a small user
// universe whose states stay cache-resident. The GRU step and the head
// dominate; ingest, storage and the learner do no work here, so it is the
// workload on which a scorer or kernel change must show and a storage or
// ingest change must not.
#include <optional>

#include "ingest/load_gen.hpp"
#include "models/rnn_model.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pp;

class ServeF32Hot final : public Workload {
 public:
  explicit ServeF32Hot(const RunConfig& config) : meta_(schema_source()) {
    // One producer: consecutive session starts are 601-721 s apart against
    // a 1200 s window, so every start call fires exactly one join timer and
    // is one score plus one GRU step (the paper's per-decision cost). With
    // merged producers the count per call varies 0-3 and the percentiles
    // would straddle those modes.
    ingest::LoadGenConfig lg;
    lg.num_users = config.tiny ? 512 : 4096;
    lg.num_producers = 1;
    lg.sessions_per_producer = config.tiny ? 2000 : 80000;
    lg.zipf_theta = 0.99;
    lg.start_time = meta_.start_time;
    lg.session_length = meta_.session_length;
    lg.seed = config.seed;
    users_ = lg.num_users;
    events_ = ingest::LoadGenerator(lg).generate_all();

    // The first fifth of the stream is set-up (warm-up); the rest is
    // measured.
    const std::size_t total_contexts =
        lg.sessions_per_producer * lg.num_producers;
    std::size_t seen = 0;
    while (warm_end_ < events_.size() && seen < total_contexts / 5) {
      if (events_[warm_end_].kind == ingest::EventKind::kContext) ++seen;
      ++warm_end_;
    }
    contexts_total_ = total_contexts;
    measured_contexts_ = total_contexts - seen;
  }

  const char* name() const override { return "serve_f32_hot"; }
  int busy_threads() const override { return 1; }

  PassResult run_pass(bool traced) override {
    PassResult r;
    r.traced = traced;
    std::optional<Tracer> tracer;
    if (traced) tracer.emplace((events_.size() - warm_end_) * 8);
    Tracer* tr = traced ? &*tracer : nullptr;

    // ---- set-up: model, stack, one stored state per user, warm-up.
    const std::int64_t s0 = now_ns();
    models::RnnModel model(meta_, models::RnnModelConfig{});
    serving::LocalKvStore kv;
    SeamKvStore seam_kv(kv, nullptr);
    serving::HiddenStateStore hidden(traced ? static_cast<serving::KvStore&>(
                                                  seam_kv)
                                            : kv,
                                     serving::StateCodec::kFloat32);
    serving::RnnPolicy policy(model, hidden, serving::ScorePrecision::kFloat32);
    SeamPolicy seam(policy, nullptr, nullptr);
    serving::PrecomputePolicy& served =
        traced ? static_cast<serving::PrecomputePolicy&>(seam) : policy;
    serving::PrecomputeService service(served, kDecisionThreshold,
                                       meta_.session_length, 0,
                                       meta_.start_time);
    for (std::uint64_t u = 0; u < users_; ++u) {
      hidden.put(u, make_state(model.network(), u, meta_.start_time - 3600));
    }
    for (std::size_t i = 0; i < warm_end_; ++i) feed(service, events_[i]);
    r.setup_s = static_cast<double>(now_ns() - s0) * 1e-9;

    // ---- measured phase: the rest of the stream, closed loop.
    seam_kv.set_tracer(tr);
    seam.set_tracer(tr);
    const PolicySeamCounts counts0 = seam.counts();
    r.latency_us.reserve(measured_contexts_);
    Digest digest;
    const Ledger before = read_ledger(served);
    const std::int64_t m0 = now_ns();
    for (std::size_t i = warm_end_; i < events_.size(); ++i) {
      const ingest::Event& ev = events_[i];
      if (ev.kind == ingest::EventKind::kContext) {
        SpanScope span(tr, Layer::kService, "serving.service.on_session_start",
                       ev.session_id);
        const std::int64_t a = now_ns();
        const bool decision =
            service.on_session_start(ev.session_id, ev.user_id, ev.t,
                                     ev.context);
        r.latency_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
        digest.add(decision ? 1 : 0);
      } else {
        SpanScope span(tr, Layer::kService, "serving.service.on_access",
                       ev.session_id);
        service.on_access(ev.session_id, ev.t);
      }
    }
    const std::int64_t m1 = now_ns();
    const Ledger after = read_ledger(served);
    seam_kv.set_tracer(nullptr);
    seam.set_tracer(nullptr);

    // ---- outputs and checks (untimed).
    service.flush();
    finish_outcome(service, digest, r);
    r.decisions_per_s = static_cast<double>(measured_contexts_) /
                        (static_cast<double>(m1 - m0) * 1e-9);
    const double predicted = static_cast<double>(after.cost.predictions -
                                                 before.cost.predictions);
    r.attempted = measured_contexts_;
    r.failed = measured_contexts_ - static_cast<std::uint64_t>(predicted);
    add_ledger_counters(before, after, measured_contexts_, r);

    const serving::ServingCostSummary cost = served.cost_summary();
    const serving::JoinerStats joiner = service.joiner_stats();
    if (cost.predictions != contexts_total_) {
      r.check_failures.push_back("predictions != context events");
    }
    if (cost.state_updates != joiner.joined ||
        joiner.joined != contexts_total_) {
      r.check_failures.push_back(
          "after flush, state updates == joined == contexts does not hold");
    }
    if (cost.kv.lookups != cost.predictions + cost.state_updates) {
      r.check_failures.push_back(
          "KV lookups != predictions + state updates");
    }

    if (traced) {
      r.spans = tracer->spans();
      layer_metrics_from_spans(
          r.spans, measured_contexts_,
          static_cast<std::uint64_t>(r.exact_counters["state_updates"]), r);
      add_seam_counts(counts0, seam.counts(), r);
      if (tracer->dropped() > 0) {
        r.check_failures.push_back("span buffer overflowed");
      }
    }
    return r;
  }

 private:
  static void feed(serving::PrecomputeService& service,
                   const ingest::Event& ev) {
    if (ev.kind == ingest::EventKind::kContext) {
      service.on_session_start(ev.session_id, ev.user_id, ev.t, ev.context);
    } else {
      service.on_access(ev.session_id, ev.t);
    }
  }

  data::Dataset meta_;
  std::uint64_t users_ = 0;
  std::vector<ingest::Event> events_;
  std::size_t warm_end_ = 0;
  std::uint64_t contexts_total_ = 0;
  std::uint64_t measured_contexts_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_f32_hot(const RunConfig& config) {
  return std::make_unique<ServeF32Hot>(config);
}

}  // namespace perfbench
