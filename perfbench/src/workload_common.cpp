#include <array>

#include "data/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

pp::data::Dataset schema_source() {
  pp::data::MobileTabConfig config;
  config.num_users = 32;
  config.days = 2;
  return pp::data::generate_mobile_tab(config);
}

std::vector<std::string> cross_pass_checks(
    const std::vector<PassResult>& passes) {
  std::vector<std::string> failures;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    const std::string where = "pass " + std::to_string(i) + ": ";
    for (const std::string& f : p.check_failures) failures.push_back(where + f);
    if (p.digest != passes.front().digest) {
      failures.push_back(where + "decision digest differs from pass 0");
    }
    // Pass 0 also pays the process's one-time lazy initialization (obs
    // instruments registered on first use), so counters are compared from
    // pass 1 on.
    for (std::size_t j = 1; j < i; ++j) {
      if (passes[j].traced != p.traced) continue;
      for (const auto& [name, value] : p.exact_counters) {
        const auto it = passes[j].exact_counters.find(name);
        if (it == passes[j].exact_counters.end() || it->second != value) {
          failures.push_back(
              where + "work counter " + name + " = " + std::to_string(value) +
              " differs from pass " + std::to_string(j) + " (" +
              (it == passes[j].exact_counters.end()
                   ? std::string("absent")
                   : std::to_string(it->second)) +
              ")");
        }
      }
      break;
    }
  }
  return failures;
}

void finish_outcome(pp::serving::PrecomputeService& service, Digest& digest,
                    PassResult& out) {
  const pp::serving::OnlineMetrics metrics = service.metrics();
  const std::vector<double> series = metrics.daily_pr_auc_series();
  double auc_sum = 0;
  for (const double auc : series) {
    digest.add_double(auc);
    auc_sum += auc;
  }
  out.served_pr_auc =
      series.empty() ? 0.0 : auc_sum / static_cast<double>(series.size());
  out.layer["serving.service.prefetch_precision"] = metrics.precision();
  digest.add(metrics.predictions());
  digest.add(metrics.prefetches());
  digest.add(metrics.successful_prefetches());
  digest.add(metrics.accesses());
  const pp::serving::ServingCostSummary cost = service.policy().cost_summary();
  for (const std::size_t v :
       {cost.predictions, cost.state_updates, cost.model_flops,
        cost.kv.lookups, cost.kv.hits, cost.kv.writes, cost.kv.deletes,
        cost.kv.bytes_read, cost.kv.bytes_written, cost.storage_bytes,
        cost.live_keys}) {
    digest.add(v);
  }
  const pp::serving::JoinerStats j = service.joiner_stats();
  for (const std::size_t v :
       {j.contexts, j.accesses, j.joined, j.duplicate_contexts,
        j.duplicate_accesses, j.orphan_accesses, j.orphan_drops,
        j.late_accesses, j.clock_rewinds}) {
    digest.add(v);
  }
  out.digest = digest.value();
}

void layer_metrics_from_spans(const std::vector<Span>& spans,
                              std::uint64_t decisions, std::uint64_t updates,
                              PassResult& out) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::array<double, static_cast<std::size_t>(Layer::kCount)> layer_self{};
  double root_wall = 0;
  double score_self = 0, update_self = 0;
  double get_total = 0, put_total = 0;
  std::uint64_t gets = 0, puts = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // The load generator's publishes run on its own thread, outside the
    // system's decision path; they are in the span dump, not the shares.
    if (std::string_view(s.op) == "ingest.publish") continue;
    if (s.parent < 0) root_wall += static_cast<double>(s.end - s.start);
    layer_self[static_cast<std::size_t>(s.layer)] +=
        static_cast<double>(self[i]);
    const std::string_view op = s.op;
    if (op == "serving.policy.score") score_self += static_cast<double>(self[i]);
    if (op == "serving.policy.update") {
      update_self += static_cast<double>(self[i]);
    }
    if (op == "serving.kv.get") {
      get_total += static_cast<double>(s.end - s.start);
      ++gets;
    }
    if (op == "serving.kv.put") {
      put_total += static_cast<double>(s.end - s.start);
      ++puts;
    }
  }
  for (std::size_t l = 0; l < layer_self.size(); ++l) {
    out.layer[std::string(layer_name(static_cast<Layer>(l))) + ".self_share"] =
        root_wall > 0 ? layer_self[l] / root_wall : 0.0;
  }
  const auto per = [](double total_ns, std::uint64_t n) {
    return n == 0 ? 0.0 : total_ns / static_cast<double>(n) * 1e-3;
  };
  out.layer["serving.policy.score_self_us_per_decision"] =
      per(score_self, decisions);
  out.layer["serving.policy.update_self_us_per_session"] =
      per(update_self, updates);
  out.layer["serving.kv.get_us"] = per(get_total, gets);
  out.layer["serving.kv.put_us"] = per(put_total, puts);
}

void add_seam_counts(const PolicySeamCounts& before,
                     const PolicySeamCounts& after, PassResult& out) {
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double calls = d(before.score_calls, after.score_calls);
  const double groups = d(before.groups, after.groups);
  out.layer["serving.policy.sessions_per_score_call"] =
      calls > 0 ? d(before.sessions_scored, after.sessions_scored) / calls
                : 0.0;
  out.layer["util.pool.threads_per_group"] =
      groups > 0 ? d(before.group_threads, after.group_threads) / groups : 0.0;
  out.layer["util.pool.score_calls_per_group"] =
      groups > 0 ? calls / groups : 0.0;
}

namespace {

pp::tensor::Matrix update_row(const pp::train::RnnNetwork& net,
                              std::uint64_t variant) {
  const std::size_t fw = net.config().feature_size;
  const std::size_t tb = net.config().time_buckets;
  pp::tensor::Matrix row(1, net.config().update_input_size());
  std::span<float> x = row.row(0);
  if (fw > 0) x[variant % fw] = 1.0f;
  x[fw + (variant / 7) % tb] = 1.0f;
  x[fw + tb] = variant % 3 == 0 ? 1.0f : 0.0f;
  return row;
}

}  // namespace

pp::serving::StoredState make_state(const pp::train::RnnNetwork& net,
                                    std::uint64_t variant,
                                    std::int64_t last_update_time) {
  pp::serving::StoredState s;
  s.state = net.infer_initial_state();
  net.infer_update(s.state, update_row(net, variant));
  s.last_update_time = last_update_time;
  s.updates = 1;
  return s;
}

pp::serving::QuantizedStoredState make_state_q8(
    const pp::train::RnnNetwork& net, std::uint64_t variant,
    std::int64_t last_update_time) {
  pp::serving::QuantizedStoredState s;
  s.state = net.infer_initial_state_q8();
  net.infer_update_q8(s.state, update_row(net, variant));
  s.last_update_time = last_update_time;
  s.updates = 1;
  return s;
}

Ledger read_ledger(pp::serving::PrecomputePolicy& policy) {
  return Ledger{policy.cost_summary(), alloc_count()};
}

void add_ledger_counters(const Ledger& before, const Ledger& after,
                         std::uint64_t decisions, PassResult& out) {
  const auto d = [](std::size_t a, std::size_t b) {
    return static_cast<double>(b - a);
  };
  const double n = decisions == 0 ? 1.0 : static_cast<double>(decisions);
  const pp::serving::ServingCostSummary& a = before.cost;
  const pp::serving::ServingCostSummary& b = after.cost;
  const double lookups = d(a.kv.lookups, b.kv.lookups);
  out.exact_counters["predictions"] = d(a.predictions, b.predictions);
  out.exact_counters["state_updates"] = d(a.state_updates, b.state_updates);
  out.exact_counters["macs"] = d(a.model_flops, b.model_flops);
  out.exact_counters["kv_lookups"] = lookups;
  out.exact_counters["kv_hits"] = d(a.kv.hits, b.kv.hits);
  out.exact_counters["kv_bytes_read"] = d(a.kv.bytes_read, b.kv.bytes_read);
  out.exact_counters["kv_bytes_written"] =
      d(a.kv.bytes_written, b.kv.bytes_written);
  out.exact_counters["allocs"] =
      static_cast<double>(after.alloc.allocs - before.alloc.allocs);
  out.exact_counters["alloc_bytes"] =
      static_cast<double>(after.alloc.bytes - before.alloc.bytes);

  out.layer["serving.service.completions_per_decision"] =
      d(a.state_updates, b.state_updates) / n;
  out.layer["serving.policy.macs_per_decision"] =
      d(a.model_flops, b.model_flops) / n;
  out.layer["serving.kv.lookups_per_decision"] = lookups / n;
  out.layer["serving.kv.bytes_read_per_decision"] =
      d(a.kv.bytes_read, b.kv.bytes_read) / n;
  out.layer["serving.kv.bytes_written_per_decision"] =
      d(a.kv.bytes_written, b.kv.bytes_written) / n;
  out.layer["serving.kv.hit_ratio"] =
      lookups > 0 ? d(a.kv.hits, b.kv.hits) / lookups : 0.0;
  out.layer["process.allocs_per_decision"] = out.exact_counters["allocs"] / n;
  out.layer["process.alloc_bytes_per_decision"] =
      out.exact_counters["alloc_bytes"] / n;
}

}  // namespace perfbench
