// learn_durable: closed loop, one thread, through a durable tenant: a
// segment-log KV holding a large population of stored states plus a
// replay journal. A generated MobileTab cohort is replayed with a
// synchronous learner round at every event-time day boundary, then the
// tenant is torn down and reopened on the same directories. The only
// workload where the segment log, the journal and training do most of the
// work; rounds run on the caller, so served PR-AUC is exact run to run.
#include <filesystem>
#include <optional>

#include "data/generators.hpp"
#include "models/rnn_model.hpp"
#include "online/cohort_map.hpp"
#include "storage/durable_kv_store.hpp"
#include "storage/kv_factory.hpp"
#include "storage/replay_journal.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pp;
namespace fs = std::filesystem;

constexpr std::int64_t kDay = 86400;
// Ids of the stored-state population sit far above the cohort's ids.
constexpr std::uint64_t kBallastBase = 1ull << 40;

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// The durable tenant, wired the way register_tenant() wires one (KV
/// backend, hidden-state store, journal replayed into the learner before
/// serving, registry-backed policy, journal-first completion listener),
/// but from public constructors so the traced pass can put decorators at
/// the KV and policy seams.
struct Tenant {
  Tenant(const data::Dataset& dataset, std::shared_ptr<models::RnnModel> model,
         const std::string& dir, bool traced)
      : cohort(&map.create("learn", std::move(model), dataset,
                           online::CohortConfig{})),
        kv(open_kv(dir + "/kv", &kv_open_s)),
        seam_kv(*kv, nullptr),
        hidden(traced ? static_cast<serving::KvStore&>(seam_kv) : *kv,
               serving::StateCodec::kFloat32),
        journal(open_journal(dir + "/replay", cohort)),
        policy(cohort->registry(), hidden),
        seam(policy, nullptr, nullptr),
        service(traced ? static_cast<serving::PrecomputePolicy&>(seam)
                       : policy,
                kDecisionThreshold, dataset.session_length, 0,
                dataset.start_time) {
    service.set_completion_listener(
        [this](const serving::JoinedSession& joined) {
          {
            SpanScope span(tracer, Layer::kStorage, "storage.journal_append");
            journal->append(joined.user_id, joined.session_start,
                            joined.context, joined.access);
          }
          SpanScope span(tracer, Layer::kOnline, "online.observe");
          cohort->observe(joined);
        });
  }

  static std::unique_ptr<serving::KvStore> open_kv(const std::string& dir,
                                                   double* seconds) {
    const std::int64_t a = now_ns();
    auto kv = storage::make_kv_store(storage::KvBackendSpec::durable_dir(dir));
    *seconds = static_cast<double>(now_ns() - a) * 1e-9;
    return kv;
  }

  static std::unique_ptr<storage::ReplayJournal> open_journal(
      const std::string& dir, online::CohortRegistryMap::Cohort* cohort) {
    fs::create_directories(dir);
    storage::ReplayJournalConfig config;
    config.dir = dir;
    online::OnlineLearner* learner = &cohort->learner();
    return std::make_unique<storage::ReplayJournal>(
        config, [learner](std::uint64_t user_id, std::int64_t session_start,
                          const std::array<std::uint32_t,
                                           data::kMaxContextFields>& context,
                          bool access) {
          serving::JoinedSession joined;
          joined.user_id = user_id;
          joined.session_start = session_start;
          joined.context = context;
          joined.access = access;
          learner->observe(joined);
        });
  }

  storage::DurableKvStore& durable() {
    return dynamic_cast<storage::DurableKvStore&>(*kv);
  }
  void set_tracer(Tracer* t) {
    tracer = t;
    seam_kv.set_tracer(t);
    seam.set_tracer(t);
  }

  online::CohortRegistryMap map;
  online::CohortRegistryMap::Cohort* cohort;
  double kv_open_s = 0;
  std::unique_ptr<serving::KvStore> kv;
  SeamKvStore seam_kv;
  serving::HiddenStateStore hidden;
  std::unique_ptr<storage::ReplayJournal> journal;
  serving::RnnPolicy policy;
  SeamPolicy seam;
  serving::PrecomputeService service;
  Tracer* tracer = nullptr;
};

struct Item {
  std::int64_t t;
  std::uint64_t user_id;
  const data::Session* session;
};

class LearnDurable final : public Workload {
 public:
  explicit LearnDurable(const RunConfig& config)
      : dir_(config.work_dir + "/learn_durable") {
    data::MobileTabConfig mt;
    mt.num_users = config.tiny ? 200 : 2000;
    mt.days = config.tiny ? 3 : 8;
    mt.seed = config.seed;
    cohort_ = data::generate_mobile_tab(mt);
    for (const data::UserLog& user : cohort_.users) {
      for (const data::Session& s : user.sessions) {
        stream_.push_back({s.timestamp, user.user_id, &s});
      }
    }
    std::stable_sort(stream_.begin(), stream_.end(),
                     [](const Item& a, const Item& b) { return a.t < b.t; });
    ballast_ = config.tiny ? 5000 : 500000;
    model_config_.hidden_size = 32;
    model_config_.mlp_hidden = 32;
  }

  const char* name() const override { return "learn_durable"; }
  int busy_threads() const override { return 1; }

  PassResult run_pass(bool traced) override {
    PassResult r;
    r.traced = traced;
    std::optional<Tracer> tracer;
    if (traced) tracer.emplace(stream_.size() * 12);
    Tracer* tr = traced ? &*tracer : nullptr;
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    // ---- set-up: tenant on fresh dirs, stored states for the population.
    const std::int64_t s0 = now_ns();
    auto model = std::make_shared<models::RnnModel>(cohort_, model_config_);
    auto tenant = std::make_unique<Tenant>(cohort_, model, dir_, traced);
    const serving::StoredState state =
        make_state(model->network(), 1, cohort_.start_time - 3600);
    const std::int64_t b0 = now_ns();
    for (std::uint64_t i = 0; i < ballast_; ++i) {
      tenant->hidden.put(kBallastBase + i, state);
    }
    const std::int64_t b1 = now_ns();
    r.setup_s = static_cast<double>(b1 - s0) * 1e-9;
    r.extra["storage.bulk_put_us"] = {
        static_cast<double>(b1 - b0) * 1e-3 / static_cast<double>(ballast_),
        "us"};

    // ---- measured phase: replay with a round at each day boundary.
    tenant->set_tracer(tr);
    const PolicySeamCounts counts0 = tenant->seam.counts();
    serving::PrecomputePolicy& served =
        traced ? static_cast<serving::PrecomputePolicy&>(tenant->seam)
               : tenant->policy;
    const std::uint64_t disk0 =
        dir_bytes(dir_ + "/kv") + dir_bytes(dir_ + "/replay");
    r.latency_us.reserve(stream_.size());
    std::vector<double> round_s, round_sessions;
    std::int64_t round_ns = 0;
    Digest digest;
    online::OnlineLearner& learner = tenant->cohort->learner();
    const Ledger before = read_ledger(served);
    std::int64_t next_day = cohort_.start_time + kDay;
    std::uint64_t session_id = 0;
    const std::int64_t m0 = now_ns();
    for (const Item& item : stream_) {
      if (item.t >= next_day) {
        const std::int64_t a = now_ns();
        online::OnlineUpdateReport report;
        {
          SpanScope span(tr, Layer::kOnline, "online.round");
          report = learner.run_update_round();
        }
        const std::int64_t dt = now_ns() - a;
        round_ns += dt;
        if (report.ran) {
          round_s.push_back(static_cast<double>(dt) * 1e-9);
          round_sessions.push_back(static_cast<double>(report.train_sessions));
        }
        while (next_day <= item.t) next_day += kDay;
      }
      ++session_id;
      {
        // Release the completions due by this start first, so the timed
        // start call is the decision alone: on the cohort's bursty arrivals
        // the number of completions per start varies, and percentiles over
        // a mix of 0, 1 and 2 GRU steps jump between modes. The service
        // state and the decision are the same either way.
        SpanScope span(tr, Layer::kService, "serving.service.advance_to",
                       session_id);
        tenant->service.advance_to(item.t);
      }
      {
        SpanScope span(tr, Layer::kService,
                       "serving.service.on_session_start", session_id);
        const std::int64_t a = now_ns();
        const bool decision = tenant->service.on_session_start(
            session_id, item.user_id, item.t, item.session->context);
        r.latency_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
        digest.add(decision ? 1 : 0);
      }
      if (item.session->access) {
        SpanScope span(tr, Layer::kService, "serving.service.on_access",
                       session_id);
        tenant->service.on_access(session_id,
                                  item.t + cohort_.session_length / 2);
      }
    }
    const std::int64_t m1 = now_ns();
    const Ledger after = read_ledger(served);
    {
      SpanScope span(tr, Layer::kService, "serving.service.flush");
      tenant->service.flush();
    }
    {
      SpanScope span(tr, Layer::kStorage, "storage.flush");
      tenant->journal->flush();
      tenant->durable().flush();
    }
    tenant->set_tracer(nullptr);

    const std::uint64_t decisions = stream_.size();
    r.decisions_per_s = static_cast<double>(decisions) /
                        (static_cast<double>(m1 - m0 - round_ns) * 1e-9);
    finish_outcome(tenant->service, digest, r);
    r.attempted = decisions;
    r.failed = decisions - static_cast<std::uint64_t>(
                               after.cost.predictions - before.cost.predictions);
    add_ledger_counters(before, after, decisions, r);

    const online::OnlineLearnerStats ls = learner.stats();
    if (ls.publishes + ls.rejects + ls.skipped != ls.rounds) {
      r.check_failures.push_back("publishes + rejects + skipped != rounds");
    }
    const std::size_t written_size = tenant->kv->size();
    const std::size_t written_bytes = tenant->kv->value_bytes();
    const std::size_t appended = tenant->journal->stats().appended;
    const storage::DurableKvStats written_stats = tenant->durable().durable_stats();
    const std::uint64_t disk1 =
        dir_bytes(dir_ + "/kv") + dir_bytes(dir_ + "/replay");
    const PolicySeamCounts counts1 = tenant->seam.counts();
    r.exact_counters["appended_bytes"] = static_cast<double>(disk1 - disk0);

    // ---- teardown and reopen on the same dirs (timed).
    tenant.reset();
    const std::int64_t o0 = now_ns();
    std::int32_t reopen_span =
        traced ? tr->open(Layer::kStorage, "storage.reopen", 0) : -1;
    Tenant reopened(cohort_, model, dir_, false);
    if (traced) tr->close(reopen_span);
    const double reopen_s = static_cast<double>(now_ns() - o0) * 1e-9;
    if (reopened.kv->size() != written_size ||
        reopened.kv->value_bytes() != written_bytes) {
      r.check_failures.push_back("reopened KV size/value_bytes differ");
    }
    const storage::ReplayJournalStats js = reopened.journal->stats();
    if (js.replayed != appended || js.decode_rejects + js.crc_rejects > 0) {
      r.check_failures.push_back("journal replay count differs from appends");
    }

    r.extra["round_s"] = {round_s.empty() ? 0.0 : median(round_s), "s"};
    r.extra["reopen_s"] = {reopen_s, "s"};
    r.extra["storage.kv_reopen_s"] = {reopened.kv_open_s, "s"};
    if (!round_s.empty()) {
      double sessions = 0, seconds = 0;
      for (std::size_t i = 0; i < round_s.size(); ++i) {
        sessions += round_sessions[i];
        seconds += round_s[i];
      }
      r.extra["online.round_us_per_train_session"] = {
          sessions > 0 ? seconds * 1e6 / sessions : 0.0, "us"};
    }
    r.layer["storage.reopen_mb_per_s"] =
        static_cast<double>(disk1) / 1e6 / reopen_s;
    r.layer["storage.recovered_records"] = static_cast<double>(
        reopened.durable().durable_stats().recovered_records);
    r.layer["storage.journal_replayed"] = static_cast<double>(js.replayed);
    r.layer["storage.appended_bytes_per_session"] =
        static_cast<double>(disk1 - disk0) / static_cast<double>(decisions);
    r.layer["storage.compactions"] =
        static_cast<double>(written_stats.compactions);
    r.layer["online.round_train_sessions"] =
        round_sessions.empty() ? 0.0 : median(round_sessions);
    r.layer["online.publishes"] = static_cast<double>(ls.publishes);
    r.layer["online.rejects"] = static_cast<double>(ls.rejects);

    if (traced) {
      r.spans = tracer->spans();
      layer_metrics_from_spans(
          r.spans, decisions,
          static_cast<std::uint64_t>(r.exact_counters["state_updates"]), r);
      add_seam_counts(counts0, counts1, r);
      if (tracer->dropped() > 0) {
        r.check_failures.push_back("span buffer overflowed");
      }
    }
    fs::remove_all(dir_);
    return r;
  }

 private:
  std::string dir_;
  data::Dataset cohort_;
  std::vector<Item> stream_;
  std::uint64_t ballast_ = 0;
  models::RnnModelConfig model_config_;
};

}  // namespace

std::unique_ptr<Workload> make_learn_durable(const RunConfig& config) {
  return std::make_unique<LearnDurable>(config);
}

}  // namespace perfbench
