// The three fixed-work workloads. Each run generates its inputs from the
// seed once, then repeats fixed-work passes: a pass sets the stack up
// (timed as set-up), replays the whole input (timed), and checks outputs
// (untimed). A traced pass assembles the same components with decorators
// at the public seams and records spans.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "measure.hpp"
#include "serving/precompute_service.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  /// Scaled-down inputs: every workload end to end in seconds (self-test).
  bool tiny = false;
  /// Scratch directory inside the checkout (durable state, span dumps).
  std::string work_dir;
};

/// What one pass measured.
struct PassResult {
  bool traced = false;
  double setup_s = 0;
  /// Raw per-decision latency samples, microseconds.
  std::vector<double> latency_us;
  double decisions_per_s = 0;
  double served_pr_auc = 0;
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output-check failures; empty means the pass is correct.
  std::vector<std::string> check_failures;
  /// Timing-free work counters that must repeat exactly across passes.
  std::map<std::string, double> exact_counters;
  /// Per-layer metrics (name -> value); the unit lives in the metric table.
  std::map<std::string, double> layer;
  /// Workload-specific figures that are printed and written to the layer
  /// table but are not uniform across workloads (name -> (value, unit)).
  std::map<std::string, std::pair<double, std::string>> extra;
  /// Spans of a traced pass.
  std::vector<Span> spans;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Threads the workload keeps busy at once (recorded with each run).
  virtual int busy_threads() const = 0;
  /// One fixed-work pass over the inputs built at construction.
  virtual PassResult run_pass(bool traced) = 0;
  /// Checks that need more than one pass or an independent reference,
  /// run once after the timed passes. Returns failures.
  virtual std::vector<std::string> final_checks(
      const std::vector<PassResult>& passes) {
    (void)passes;
    return {};
  }
};

/// Output checks over the passes of one run: each pass's own failures, a
/// decision digest equal in every pass (traced ones included), and work
/// counters that repeat exactly between passes of the same kind.
std::vector<std::string> cross_pass_checks(
    const std::vector<PassResult>& passes);

std::unique_ptr<Workload> make_serve_f32_hot(const RunConfig& config);
std::unique_ptr<Workload> make_ingest_int8_1m(const RunConfig& config);
std::unique_ptr<Workload> make_learn_durable(const RunConfig& config);

// ---- helpers shared by the workloads ----

/// Prefetch threshold of every workload's service.
inline constexpr double kDecisionThreshold = 0.5;

/// A small MobileTab dataset whose only use is the context schema and the
/// session window the models and services are built against.
pp::data::Dataset schema_source();

/// After the service is flushed: folds its observable outcome (daily
/// PR-AUC series, prefetch accounting, cost ledger, joiner stats) into
/// `digest`, stores the digest, and records served PR-AUC (mean of the
/// daily series) and prefetch precision.
void finish_outcome(pp::serving::PrecomputeService& service, Digest& digest,
                    PassResult& out);

/// Per-layer figures every workload derives the same way from a traced
/// pass's spans and the ledger deltas of its measured phase.
void layer_metrics_from_spans(const std::vector<Span>& spans,
                              std::uint64_t decisions, std::uint64_t updates,
                              PassResult& out);

/// util.pool and scoring-shape figures from the policy seam's counts.
void add_seam_counts(const PolicySeamCounts& before,
                     const PolicySeamCounts& after, PassResult& out);

/// A stored state after one real GRU step from the cell's initial state;
/// `variant` picks the step's input so states differ between users.
pp::serving::StoredState make_state(const pp::train::RnnNetwork& net,
                                    std::uint64_t variant,
                                    std::int64_t last_update_time);
pp::serving::QuantizedStoredState make_state_q8(
    const pp::train::RnnNetwork& net, std::uint64_t variant,
    std::int64_t last_update_time);

/// Ledger delta helpers.
struct Ledger {
  pp::serving::ServingCostSummary cost;
  AllocCount alloc;
};
Ledger read_ledger(pp::serving::PrecomputePolicy& policy);
void add_ledger_counters(const Ledger& before, const Ledger& after,
                         std::uint64_t decisions, PassResult& out);

}  // namespace perfbench
