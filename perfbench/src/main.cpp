// The benchmark binary.
//
//   perfbench --workload <serve_f32_hot|ingest_int8_1m|learn_durable>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--tiny]
//
// Repeats fixed-work passes of the workload until --seconds have passed
// (at least kMinPasses), checks every pass's outputs, prints every metric
// by name with its unit, and prints one JSON result as the last line:
// end-to-end metrics with --trace 0 (untraced passes only), per-layer
// metrics with --trace 1 (traced passes alternate with untraced ones; the
// difference is the tracing overhead). Exits 1 when an output check fails
// and 2 on bad usage or a forbidden environment.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"decision_p50_us", "us"},  {"decision_p90_us", "us"},
    {"decisions_per_s", "1/s"}, {"served_pr_auc", "1"},
};

constexpr MetricDef kPerLayer[] = {
    {"serving.service.self_share", "1"},
    {"serving.service.completions_per_decision", "count"},
    {"serving.service.prefetch_precision", "1"},
    {"serving.service.decision_p99_us", "us"},
    {"serving.service.decision_p999_us", "us"},
    {"serving.service.decision_samples", "count"},
    {"serving.policy.self_share", "1"},
    {"serving.policy.score_self_us_per_decision", "us"},
    {"serving.policy.update_self_us_per_session", "us"},
    {"serving.policy.macs_per_decision", "count"},
    {"serving.policy.sessions_per_score_call", "count"},
    {"serving.kv.self_share", "1"},
    {"serving.kv.get_us", "us"},
    {"serving.kv.put_us", "us"},
    {"serving.kv.lookups_per_decision", "count"},
    {"serving.kv.bytes_read_per_decision", "B"},
    {"serving.kv.bytes_written_per_decision", "B"},
    {"serving.kv.hit_ratio", "1"},
    {"ingest.self_share", "1"},
    {"ingest.merge_held_max", "count"},
    {"ingest.events_per_feed_batch", "count"},
    {"ingest.bus_blocked", "count"},
    {"ingest.bus_max_depth", "count"},
    {"ingest.wire_bytes_per_event", "B"},
    {"util.pool.threads_per_group", "count"},
    {"util.pool.score_calls_per_group", "count"},
    {"storage.self_share", "1"},
    {"storage.reopen_mb_per_s", "MB/s"},
    {"storage.recovered_records", "count"},
    {"storage.journal_replayed", "count"},
    {"storage.appended_bytes_per_session", "B"},
    {"storage.compactions", "count"},
    {"online.self_share", "1"},
    {"online.round_train_sessions", "count"},
    {"online.publishes", "count"},
    {"online.rejects", "count"},
    {"process.allocs_per_decision", "count"},
    {"process.alloc_bytes_per_decision", "B"},
    {"trace.overhead_frac", "1"},
};

// Untraced passes per run at least; a traced run needs at least
// kMinTracedPasses of each kind (its metrics carry no bound).
constexpr int kMinPasses = 3;
constexpr int kMinTracedPasses = 2;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] [--tiny]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage((std::string(flag) + ": not a number").c_str());
  return v;
}

/// Median across passes of a per-pass value.
template <typename F>
double across(const std::vector<const PassResult*>& passes, F value) {
  std::vector<double> v;
  for (const PassResult* p : passes) v.push_back(value(*p));
  return median(std::move(v));
}

struct Percentiles {
  double p50 = 0, p90 = 0, p99 = 0, p999 = 0;
  double samples = 0;  // per pass
};

/// Median over passes of each pass's exact percentiles.
Percentiles percentiles(const std::vector<const PassResult*>& passes) {
  std::vector<double> p50, p90, p99, p999, n;
  for (const PassResult* p : passes) {
    std::vector<double> s = p->latency_us;
    if (s.empty()) continue;
    p50.push_back(exact_quantile(s, 0.50));
    p90.push_back(exact_quantile(s, 0.90));
    p99.push_back(exact_quantile(s, 0.99));
    p999.push_back(exact_quantile(s, 0.999));
    n.push_back(static_cast<double>(s.size()));
  }
  if (n.empty()) return {};
  return {median(p50), median(p90), median(p99), median(p999), median(n)};
}

void print_metric(const std::string& name, double value, const char* unit,
                  const std::string& note = "") {
  std::printf("  %-46s %16.6f %-6s%s\n", name.c_str(), value, unit,
              note.c_str());
}

void write_layer_table(const std::string& path, const char* workload,
                       const PassResult& pass, const std::string& record) {
  std::ofstream out(path);
  const std::vector<std::int64_t> self = self_times(pass.spans);
  out << "# " << workload << " traced pass, " << pass.spans.size()
      << " spans; run record " << record << "\n";
  out << "op,layer,count,total_ms,self_ms,self_us_per_call\n";
  for (const OpTotals& t : op_totals(pass.spans, self)) {
    out << t.op << "," << layer_name(t.layer) << "," << t.count << ","
        << static_cast<double>(t.total_ns) * 1e-6 << ","
        << static_cast<double>(t.self_ns) * 1e-6 << ","
        << static_cast<double>(t.self_ns) * 1e-3 /
               static_cast<double>(t.count)
        << "\n";
  }
  for (const auto& [name, value] : pass.layer) {
    out << "# " << name << " = " << value << "\n";
  }
  for (const auto& [name, value] : pass.extra) {
    out << "# " << name << " = " << value.first << " " << value.second << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  RunConfig config;
  config.work_dir = ".bench_build/work";
  std::uint64_t seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_name = value();
    } else if (arg == "--seed") {
      config.seed = parse_uint("--seed", value());
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = parse_uint("--seconds", value());
    } else if (arg == "--trace") {
      trace = static_cast<int>(parse_uint("--trace", value()));
    } else if (arg == "--work-dir") {
      config.work_dir = value();
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || seconds == 0 || (trace != 0 && trace != 1)) {
    usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }
  const std::vector<std::string> forbidden = forbidden_env_set();
  if (!forbidden.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set: it changes the "
                 "kernel or the sampling every number depends on\n",
                 forbidden.front().c_str());
    return 2;
  }

  std::unique_ptr<Workload> workload;
  if (workload_name == "serve_f32_hot") {
    workload = make_serve_f32_hot(config);
  } else if (workload_name == "ingest_int8_1m") {
    workload = make_ingest_int8_1m(config);
  } else if (workload_name == "learn_durable") {
    workload = make_learn_durable(config);
  } else {
    usage(("unknown workload '" + workload_name + "'").c_str());
  }
  std::filesystem::create_directories(config.work_dir);
  const std::string record = run_record_json();
  std::printf("perfbench %s seed=%llu seconds=%llu trace=%d%s\n",
              workload->name(), static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(seconds), trace,
              config.tiny ? " (tiny)" : "");
  std::printf("run record: %s, busy_threads=%d\n", record.c_str(),
              workload->busy_threads());

  // ---- passes: fixed work each, repeated until the time is used.
  const std::uint64_t steal0 = read_steal_jiffies();
  const double spin0 = spin_probe_ms();
  const int min_passes =
      config.tiny ? 1 : (trace == 1 ? kMinTracedPasses : kMinPasses);
  std::vector<PassResult> passes;
  const std::int64_t start = now_ns();
  int untraced = 0, traced = 0;
  for (;;) {
    const bool run_traced = trace == 1 && traced < untraced;
    if (run_traced) {
      // Only the last traced pass's spans are written out.
      for (PassResult& p : passes) std::vector<Span>().swap(p.spans);
    }
    passes.push_back(workload->run_pass(run_traced));
    ++(run_traced ? traced : untraced);
    const bool enough = untraced >= min_passes && (trace == 0 || traced >= min_passes);
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (enough && elapsed >= static_cast<double>(seconds)) break;
  }

  // ---- output checks across passes and against references.
  std::vector<std::string> failures = cross_pass_checks(passes);
  for (const std::string& f : workload->final_checks(passes)) {
    failures.push_back(f);
  }
  std::uint64_t attempted = 0, failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
  }
  std::vector<const PassResult*> plain, with_trace;
  for (const PassResult& p : passes) (p.traced ? with_trace : plain).push_back(&p);

  const std::uint64_t steal = read_steal_jiffies() - steal0;
  const double spin1 = spin_probe_ms();
  std::printf("host: steal_jiffies=%llu spin_probe_ms=%.3f/%.3f passes=%zu "
              "(untraced %d, traced %d)\n",
              static_cast<unsigned long long>(steal), spin0, spin1,
              passes.size(), untraced, traced);

  // ---- metrics.
  std::map<std::string, double> metrics;
  const Percentiles pct = percentiles(plain);
  const double dps = across(plain, [](const PassResult& p) { return p.decisions_per_s; });
  metrics["setup_s"] = across(plain, [](const PassResult& p) { return p.setup_s; });
  metrics["peak_rss_mb"] = peak_rss_mb();
  metrics["decision_p50_us"] = pct.p50;
  metrics["decision_p90_us"] = pct.p90;
  metrics["decisions_per_s"] = dps;
  metrics["served_pr_auc"] =
      across(plain, [](const PassResult& p) { return p.served_pr_auc; });

  std::printf("end-to-end (median over %zu untraced passes):\n", plain.size());
  for (const MetricDef& m : kEndToEnd) {
    std::string note;
    if (std::strncmp(m.name, "decision_p", 10) == 0) {
      note = " (" + std::to_string(static_cast<long long>(pct.samples)) +
             " samples per pass)";
    }
    print_metric(m.name, metrics[m.name], m.unit, note);
  }
  // Workload-specific figures: median over the untraced passes, or over
  // the traced ones for figures only a traced pass can measure.
  std::map<std::string, std::pair<std::vector<double>, std::string>> extra;
  for (const auto* kind : {&plain, &with_trace}) {
    std::map<std::string, std::pair<std::vector<double>, std::string>> found;
    for (const PassResult* p : *kind) {
      for (const auto& [name, v] : p->extra) {
        if (extra.count(name) > 0) continue;
        found[name].first.push_back(v.first);
        found[name].second = v.second;
      }
    }
    extra.merge(found);
  }
  if (!extra.empty()) std::printf("workload-specific:\n");
  for (const auto& [name, v] : extra) {
    print_metric(name, median(v.first), v.second.c_str());
  }

  std::map<std::string, double> layer;
  if (trace == 1) {
    for (const MetricDef& m : kPerLayer) {
      layer[m.name] = across(with_trace, [&m](const PassResult& p) {
        const auto it = p.layer.find(m.name);
        return it == p.layer.end() ? 0.0 : it->second;
      });
    }
    layer["serving.service.decision_p99_us"] = pct.p99;
    layer["serving.service.decision_p999_us"] = pct.p999;
    layer["serving.service.decision_samples"] = pct.samples;
    const double traced_dps =
        across(with_trace, [](const PassResult& p) { return p.decisions_per_s; });
    layer["trace.overhead_frac"] = traced_dps > 0 ? dps / traced_dps - 1.0 : 0.0;
    std::printf("per-layer (median over %zu traced passes; a layer this "
                "workload does not exercise reads 0):\n",
                with_trace.size());
    for (const MetricDef& m : kPerLayer) print_metric(m.name, layer[m.name], m.unit);

    const PassResult& last = *with_trace.back();
    const std::string base = config.work_dir + "/" + workload->name();
    if (!write_span_dump(base + ".spans.csv", last.spans)) {
      failures.push_back("cannot write " + base + ".spans.csv");
    }
    write_layer_table(base + ".layers.csv", workload->name(), last, record);
    std::printf("span dump: %s.spans.csv (%zu spans), layer table: "
                "%s.layers.csv\n",
                base.c_str(), last.spans.size(), base.c_str());
  }

  const std::map<std::string, double>& out = trace == 1 ? layer : metrics;
  for (const auto& [name, value] : out) {
    if (!std::isfinite(value)) failures.push_back(name + " is not finite");
  }
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const MetricDef& m : trace == 1 ? std::span<const MetricDef>(kPerLayer)
                                       : std::span<const MetricDef>(kEndToEnd)) {
    const double v = std::isfinite(out.at(m.name)) ? out.at(m.name) : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name, v, m.unit);
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
