// Checks of the benchmark's own arithmetic: exact percentiles against a
// brute-force sort, span self time on nested and overlapping spans, and
// the cross-pass output check rejecting a corrupted decision digest.
// Exits non-zero on the first failed expectation.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "measure.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

void test_percentiles() {
  std::mt19937_64 rng(7);
  for (const std::size_t n : {1u, 2u, 3u, 10u, 999u, 1000u, 1001u, 65537u}) {
    std::vector<double> samples(n);
    std::lognormal_distribution<double> dist(3.0, 1.0);
    for (double& s : samples) s = dist(rng);
    for (const double q : {0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      // Brute force: the smallest sample with at least ceil(q n) samples at
      // or below it.
      const double need = std::ceil(q * static_cast<double>(n));
      double expected = 0;
      bool found = false;
      std::vector<double> candidates = samples;
      std::sort(candidates.begin(), candidates.end());
      for (const double c : candidates) {
        const auto at_or_below = static_cast<double>(
            std::count_if(samples.begin(), samples.end(),
                          [c](double s) { return s <= c; }));
        if (at_or_below >= need) {
          expected = c;
          found = true;
          break;
        }
      }
      std::vector<double> copy = samples;
      expect(found && exact_quantile(copy, q) == expected,
             "exact_quantile matches the brute-force rank");
      if (n > 2000) break;  // the O(n^2) reference is slow beyond this
    }
  }
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  expect(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of even count");
}

Span span(const char* op, std::int64_t start, std::int64_t end,
          std::int32_t parent) {
  Span s;
  s.op = op;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

void test_self_time() {
  // root [0,100) with children [10,30) and [20,50) (overlapping, e.g. two
  // threads) and [60,70); the first child has a grandchild [12,18) and a
  // child sticking out of it [25,40) whose overhang must not count.
  const std::vector<Span> spans = {
      span("root", 0, 100, -1),  span("a", 10, 30, 0), span("b", 20, 50, 0),
      span("c", 60, 70, 0),      span("a1", 12, 18, 1),
      span("a2", 25, 40, 1),     span("lone", 200, 260, -1),
  };
  const std::vector<std::int64_t> self = self_times(spans);
  expect(self[0] == 100 - (50 - 10) - (70 - 60), "root: union of children");
  expect(self[1] == 20 - 6 - 5, "a: children clipped to its interval");
  expect(self[2] == 30, "b: leaf keeps its duration");
  expect(self[4] == 6 && self[5] == 15, "grandchildren are leaves");
  expect(self[6] == 60, "unrelated root");

  // A zero-length and an inverted child contribute nothing.
  const std::vector<Span> odd = {span("p", 0, 10, -1), span("z", 5, 5, 0),
                                 span("x", 8, 3, 0)};
  expect(self_times(odd)[0] == 10, "degenerate children cover nothing");

  const std::vector<OpTotals> totals = op_totals(spans, self);
  expect(totals.size() == 7 && totals[0].self_ns == 50,
         "op totals carry self time");
}

void test_digest_check() {
  std::vector<PassResult> passes(4);
  for (PassResult& p : passes) {
    Digest d;
    d.add(42);
    d.add_double(0.125);
    p.digest = d.value();
    p.exact_counters["macs"] = 1000;
  }
  passes[3].traced = true;
  // Pass 0 pays one-time process initialization; it is not compared.
  passes[0].exact_counters["allocs"] = 7;
  expect(cross_pass_checks(passes).empty(), "identical passes pass");

  passes[1].digest ^= 1;  // one flipped decision bit
  expect(!cross_pass_checks(passes).empty(),
         "a corrupted decision digest fails the output check");
  passes[1].digest ^= 1;

  passes[2].exact_counters["macs"] = 1001;
  expect(!cross_pass_checks(passes).empty(),
         "a work counter that does not repeat fails the output check");
  passes[2].exact_counters["macs"] = 1000;

  passes[3].check_failures.push_back("predictions != context events");
  expect(!cross_pass_checks(passes).empty(),
         "a pass's own failed check fails the run");

  Digest a, b;
  a.add(1);
  a.add(2);
  b.add(2);
  b.add(1);
  expect(a.value() != b.value(), "digest is order-sensitive");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_digest_check();
  if (g_failures > 0) {
    std::printf("perfbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
