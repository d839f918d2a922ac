#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "tensor/cpu_dispatch.hpp"
#include "tensor/gemm.hpp"

namespace perfbench {

double exact_quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    throw std::invalid_argument("exact_quantile: no samples");
  }
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("exact_quantile: q must be in (0, 1]");
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  return samples[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xFFu;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add_double(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

std::vector<std::string> forbidden_env_set() {
  std::vector<std::string> set;
  for (const char* name :
       {"PP_GEMM_FORCE_KERNEL", "PP_OBS_DISABLED", "PP_OBS_SAMPLE_PERIOD"}) {
    if (std::getenv(name) != nullptr) set.emplace_back(name);
  }
  return set;
}

std::string run_record_json() {
  namespace t = pp::tensor;
  std::ostringstream out;
  out << "{\"isa\": \"" << t::cpu_isa_name(t::detected_cpu_isa())
      << "\", \"gemm_kernel\": \""
      << t::gemm_kernel_name(t::gemm_dispatched_kernel())
      << "\", \"gemm_threads\": " << t::gemm_threads()
      << ", \"obs_sample_period\": " << pp::obs::sample_period()
      << ", \"obs_timing\": " << (pp::obs::timing_enabled() ? "true" : "false")
      << "}";
  return out.str();
}

std::uint64_t read_steal_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return 0;
  for (std::uint64_t& f : fields) {
    if (!(stat >> f)) return 0;
  }
  return fields[7];  // user nice system idle iowait irq softirq steal
}

double spin_probe_ms() {
  // A fixed dependent integer chain: no memory traffic, no library code,
  // so its time tracks only the core's speed and how much of it we get.
  const std::int64_t start = now_ns();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return static_cast<double>(now_ns() - start) * 1e-6;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace perfbench
