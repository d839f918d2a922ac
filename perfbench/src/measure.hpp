// Measurement primitives of the benchmark: a monotonic clock, exact
// order statistics over raw samples, a decision digest, heap-allocation
// counters, and the host diagnostics recorded beside every run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact quantile of raw samples by the nearest-rank rule: the smallest
/// sample with at least ceil(q * n) samples at or below it. Sorts `samples`
/// in place. Throws std::invalid_argument on an empty vector or q outside
/// (0, 1].
double exact_quantile(std::vector<double>& samples, double q);
/// Median of the values (mean of the two middle values for even n).
double median(std::vector<double> values);

/// Order-sensitive 64-bit digest (FNV-1a over 8-byte words).
class Digest {
 public:
  void add(std::uint64_t word);
  void add_double(double value);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Process-wide heap-allocation counters fed by the replaced global
/// operator new (alloc_count.cpp). Monotonic; callers take deltas.
struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
AllocCount alloc_count();

/// Environment knobs that change what the library measures. The benchmark
/// refuses to run when any is set so every recorded number comes from the
/// default dispatch and sampling.
std::vector<std::string> forbidden_env_set();

/// Comparability record of the process: ISA, dispatched GEMM kernel, GEMM
/// threads and the obs sample period, as one JSON object.
std::string run_record_json();

/// Host diagnostics taken around one workload. Not metrics: they let a
/// reader tell a slow host phase from a regression.
/// Cumulative steal jiffies of all CPUs (/proc/stat).
std::uint64_t read_steal_jiffies();
/// Wall time of a fixed integer loop owned by the benchmark.
double spin_probe_ms();

/// Peak resident set (VmHWM) of this process in MB.
double peak_rss_mb();

}  // namespace perfbench
