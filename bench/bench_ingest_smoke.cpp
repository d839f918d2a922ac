// CI bench-regression gate for the streaming ingest path: seeded Zipf
// producers over a ≥1M-user universe push framed events through the
// bounded bus into the watermark-merging consumer feeding a registered
// tenant's PrecomputeService. Emits machine-readable JSON (one result per
// line) so ci/check.sh can diff events/s against a checked-in baseline.
//
//   bench_ingest_smoke --out BENCH_ingest.json
//       [--baseline ci/bench_ingest_baseline.json] [--min-ratio 0.30]
//       [--sessions 8000] [--write-baseline]
//
// Two cases, one per backpressure policy:
//   block — lossless: producers throttle to the consumer; the decision
//           p50/p99 (from the obs ingest_decision_latency_ns histogram,
//           snapshot-delta'd per case) is the serving-relevant number.
//   drop  — lossy: tiny lanes, unthrottled producers; reports how many
//           chunks the count-and-drop path sheds while the consumer keeps
//           decoding (drops are workload-dependent, so only events/s
//           gates).
//
// Each case runs 3 times, each rep on a fresh tenant, and reports its
// fastest rep (bench_serving_smoke likewise takes the best of 3): one
// slow phase of a shared host must not fail the gate on its own. The gate
// fails (exit 1) when a case's events_per_sec drops below
// min_ratio x baseline. The band is wide on purpose: it catches a lock on
// the decode path or an accidentally-serialized consumer across
// differently-sized CI runners, not percent noise. Regenerate with
// --write-baseline on the reference runner.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "data/generators.hpp"
#include "ingest/consumer.hpp"
#include "ingest/event_bus.hpp"
#include "ingest/load_gen.hpp"
#include "obs/metrics.hpp"
#include "online/cohort_map.hpp"
#include "online/tenant.hpp"
#include "storage/kv_factory.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pp;

struct Case {
  std::string name;  // "block" | "drop"
  double events_per_sec = 0;
  double decision_p50_us = 0;
  double decision_p99_us = 0;
  std::uint64_t events = 0;
  std::uint64_t chunks_dropped = 0;
  std::size_t max_queue_depth = 0;
};

/// Per-case view of the process-global ingest_decision_latency_ns
/// histogram: the registry accumulates across cases, so quantiles come
/// from the before/after bucket delta.
obs::HistogramSnapshot snapshot_delta(const obs::HistogramSnapshot& before,
                                      const obs::HistogramSnapshot& after) {
  obs::HistogramSnapshot delta;
  delta.count = after.count - before.count;
  delta.sum = after.sum - before.sum;
  delta.max = after.max;  // upper clamp only; exact per-case max is lost
  for (const auto& [bound, count] : after.buckets) {
    std::uint64_t prior = 0;
    for (const auto& [b0, c0] : before.buckets) {
      if (b0 == bound) {
        prior = c0;
        break;
      }
    }
    if (count > prior) delta.buckets.emplace_back(bound, count - prior);
  }
  return delta;
}

Case run_case(const std::string& name, ingest::BackpressurePolicy policy,
              std::size_t lane_capacity, const data::Dataset& dataset,
              online::ServingStack& stack, std::uint64_t sessions,
              ThreadPool& pool) {
  ingest::LoadGenConfig lg;
  lg.num_users = 1u << 20;  // the ≥1M-user synthetic universe
  lg.num_producers = 4;
  lg.sessions_per_producer = sessions;
  lg.zipf_theta = 0.99;
  lg.start_time = dataset.start_time;
  lg.session_length = dataset.session_length;
  lg.seed = 0x1A6E57ull;
  lg.frames_per_chunk = 32;
  const ingest::LoadGenerator gen(lg);

  ingest::EventBusConfig bus_config;
  bus_config.num_lanes = lg.num_producers;
  bus_config.lane_capacity = lane_capacity;
  bus_config.backpressure = policy;
  ingest::EventBus bus(bus_config);

  ingest::ConsumerConfig consumer_config;
  consumer_config.batch_capacity = 256;
  consumer_config.pool = &pool;
  ingest::IngestConsumer consumer(bus, stack.service(), consumer_config);

  auto& hist = obs::MetricsRegistry::global().histogram(
      "ingest_decision_latency_ns");
  const obs::HistogramSnapshot before = hist.snapshot();

  Stopwatch wall;
  consumer.start();
  const ingest::LoadGenStats produced = gen.run(&bus);
  consumer.join();
  const double elapsed = wall.elapsed_seconds();
  stack.service().flush();

  const obs::HistogramSnapshot decisions =
      snapshot_delta(before, hist.snapshot());
  Case c;
  c.name = name;
  c.events = consumer.stats().events;
  c.chunks_dropped = produced.chunks_dropped;
  c.max_queue_depth = bus.totals().max_depth;
  c.events_per_sec =
      elapsed > 0 ? static_cast<double>(c.events) / elapsed : 0.0;
  c.decision_p50_us = decisions.p50() / 1000.0;
  c.decision_p99_us = decisions.p99() / 1000.0;
  return c;
}

void write_json(const std::string& path, const std::vector<Case>& cases,
                std::uint64_t num_users) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"ingest_smoke\",\n");
  std::fprintf(f, "  \"schema\": 1,\n");
  std::fprintf(f, "  \"num_users\": %llu,\n",
               static_cast<unsigned long long>(num_users));
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    // One result object per line: the baseline comparator is a line parser.
    std::fprintf(f,
                 "    {\"case\": \"%s\", \"events_per_sec\": %.1f, "
                 "\"decision_p50_us\": %.2f, \"decision_p99_us\": %.2f, "
                 "\"events\": %llu, \"chunks_dropped\": %llu, "
                 "\"max_queue_depth\": %zu}%s\n",
                 cases[i].name.c_str(), cases[i].events_per_sec,
                 cases[i].decision_p50_us, cases[i].decision_p99_us,
                 static_cast<unsigned long long>(cases[i].events),
                 static_cast<unsigned long long>(cases[i].chunks_dropped),
                 cases[i].max_queue_depth, i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// Parses the one-result-per-line JSON written above. Both sides of the
/// comparison are produced by this binary — not a general JSON parser.
std::vector<Case> parse_json(const std::string& path, bool* ok) {
  *ok = false;
  std::vector<Case> cases;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return cases;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    const char* n = std::strstr(line, "\"case\"");
    const char* r = std::strstr(line, "\"events_per_sec\"");
    if (n == nullptr || r == nullptr) continue;
    char name[16] = {0};
    double rate = 0;
    if (std::sscanf(n, "\"case\": \"%15[^\"]\"", name) != 1) continue;
    if (std::sscanf(r, "\"events_per_sec\": %lf", &rate) != 1) continue;
    Case c;
    c.name = name;
    c.events_per_sec = rate;
    cases.push_back(c);
  }
  std::fclose(f);
  *ok = !cases.empty();
  return cases;
}

const Case* find_case(const std::vector<Case>& cases,
                      const std::string& name) {
  for (const Case& c : cases) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_ingest.json";
  std::string baseline_path;
  bool write_baseline = false;
  double min_ratio = 0.30;
  std::uint64_t sessions = 8000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_double = [&]() {
      const char* s = next();
      char* end = nullptr;
      const double v = std::strtod(s, &end);
      // A zero (or malformed → 0) gate ratio would wave every regression
      // through; both fail loudly like unknown flags do.
      if (end == s || *end != '\0' || v <= 0) {
        std::fprintf(stderr, "%s: not a positive number: '%s'\n", arg.c_str(),
                     s);
        std::exit(2);
      }
      return v;
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--min-ratio") {
      min_ratio = next_double();
    } else if (arg == "--sessions") {
      sessions = static_cast<std::uint64_t>(next_double());
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out path] [--baseline path] [--min-ratio r] "
                   "[--sessions n] [--write-baseline]\n",
                   argv[0]);
      return 2;
    }
  }

  // Weight values don't affect ingest throughput; the model serves
  // untrained. One tenant per rep so each rep's KV/joiner state is cold.
  data::MobileTabConfig data_config;
  data_config.num_users = 32;
  data_config.days = 2;
  const data::Dataset dataset = data::generate_mobile_tab(data_config);
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 16;
  rnn_config.mlp_hidden = 16;

  online::CohortRegistryMap tenants;
  auto make_stack = [&](const std::string& id) -> online::ServingStack& {
    online::TenantSpec spec;
    spec.id = id;
    spec.model = std::make_shared<models::RnnModel>(dataset, rnn_config);
    spec.dataset_meta = &dataset;
    spec.backend = storage::KvBackendSpec::sharded(8);
    spec.threshold = 0.5;
    spec.capture = false;
    return tenants.register_tenant(spec);
  };

  ThreadPool pool(4);
  std::printf("ingest smoke (1M-user Zipf universe, 4 producers x %llu "
              "sessions):\n",
              static_cast<unsigned long long>(sessions));
  const auto best_of_3 = [&](const std::string& name,
                             ingest::BackpressurePolicy policy,
                             std::size_t lane_capacity) {
    Case best;
    for (int rep = 0; rep < 3; ++rep) {
      const Case c = run_case(
          name, policy, lane_capacity, dataset,
          make_stack("ingest_" + name + std::to_string(rep)), sessions, pool);
      if (rep == 0 || c.events_per_sec > best.events_per_sec) best = c;
    }
    return best;
  };
  std::vector<Case> cases;
  cases.push_back(best_of_3("block", ingest::BackpressurePolicy::kBlock,
                            /*lane_capacity=*/256));
  cases.push_back(best_of_3("drop", ingest::BackpressurePolicy::kDropNewest,
                            /*lane_capacity=*/8));
  for (const Case& c : cases) {
    std::printf("  %-5s : %12.1f events/s  decision p50 %8.2fus  "
                "p99 %8.2fus  dropped %llu chunks  max depth %zu\n",
                c.name.c_str(), c.events_per_sec, c.decision_p50_us,
                c.decision_p99_us,
                static_cast<unsigned long long>(c.chunks_dropped),
                c.max_queue_depth);
  }

  write_json(out_path, cases, 1u << 20);
  std::printf("wrote %s\n", out_path.c_str());

  if (write_baseline) {
    if (baseline_path.empty()) {
      std::fprintf(stderr,
                   "--write-baseline needs --baseline <path> (the file to "
                   "regenerate)\n");
      return 2;
    }
    write_json(baseline_path, cases, 1u << 20);
    std::printf("wrote baseline %s\n", baseline_path.c_str());
    return 0;
  }
  if (baseline_path.empty()) return 0;

  bool parsed = false;
  const std::vector<Case> baseline = parse_json(baseline_path, &parsed);
  if (!parsed) {
    std::fprintf(stderr, "cannot parse baseline %s\n", baseline_path.c_str());
    return 1;
  }
  bool failed = false;
  std::printf("regression gate vs %s (min ratio %.2f):\n",
              baseline_path.c_str(), min_ratio);
  for (const Case& base : baseline) {
    const Case* measured = find_case(cases, base.name);
    if (measured == nullptr) {
      std::printf("  %-5s : MISSING from this run\n", base.name.c_str());
      failed = true;
      continue;
    }
    const double ratio = base.events_per_sec > 0
                             ? measured->events_per_sec / base.events_per_sec
                             : 1.0;
    const bool ok = ratio >= min_ratio;
    std::printf("  %-5s : %.2fx baseline %s\n", base.name.c_str(), ratio,
                ok ? "ok" : "REGRESSION");
    failed = failed || !ok;
  }
  return failed ? 1 : 0;
}
