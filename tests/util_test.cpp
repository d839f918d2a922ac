#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <thread>

#include "kv_reference.hpp"
#include "util/arena_map.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace pp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIndexIsUnbiasedAcrossSmallRange) {
  Rng rng(9);
  std::array<int, 5> counts{};
  for (int i = 0; i < 50000; ++i) ++counts[rng.uniform_index(5)];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 450);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(13);
  for (const double mean : {0.5, 3.0, 50.0}) {
    double total = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) total += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(total / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(17);
  const std::array<double, 3> weights{1.0, 2.0, 7.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 30000; ++i) ++counts[rng.categorical(weights)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng b = a.fork();
  // Forked stream should not replicate the parent.
  int equal = 0;
  for (int i = 0; i < 50; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Math, SigmoidStableAtExtremes) {
  EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-1000.0), 0.0, 1e-12);
  EXPECT_GT(sigmoid(-1000.0), 0.0 - 1e-300);
}

TEST(Math, BceFromLogitMatchesFromProb) {
  for (const double z : {-3.0, -0.5, 0.0, 0.7, 4.0}) {
    for (const double y : {0.0, 1.0}) {
      EXPECT_NEAR(bce_from_logit(z, y), bce_from_prob(sigmoid(z), y), 1e-9);
    }
  }
}

TEST(Math, LogitInvertsSigmoid) {
  for (const double p : {0.01, 0.25, 0.5, 0.9}) {
    EXPECT_NEAR(sigmoid(logit(p)), p, 1e-9);
  }
}

TEST(Serialize, RoundTripsAllTypes) {
  BinaryWriter writer;
  writer.write_u32(7);
  writer.write_i64(-12345678901ll);
  writer.write_f32(1.5f);
  writer.write_f64(-2.25);
  writer.write_string("hello world");
  writer.write_vector(std::vector<float>{1.0f, 2.0f, 3.0f});

  BinaryReader reader(writer.take());
  EXPECT_EQ(reader.read_u32(), 7u);
  EXPECT_EQ(reader.read_i64(), -12345678901ll);
  EXPECT_EQ(reader.read_f32(), 1.5f);
  EXPECT_EQ(reader.read_f64(), -2.25);
  EXPECT_EQ(reader.read_string(), "hello world");
  EXPECT_EQ(reader.read_vector<float>(),
            (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_TRUE(reader.at_end());
}

TEST(Serialize, TruncatedInputThrows) {
  BinaryWriter writer;
  writer.write_u64(100);  // promises 100 bytes that do not follow
  BinaryReader reader(writer.take());
  EXPECT_THROW(reader.read_string(), std::runtime_error);
}

// Corrupt-header regressions: a hostile 64-bit length field must hit the
// overflow-proof bounds check, never wrap past it into an out-of-bounds
// memcpy. The original check computed pos_ + n, which wraps for n near
// 2^64 and "passes"; these inputs all crashed or read OOB before the
// subtraction-form rewrite.
TEST(Serialize, CorruptLengthNearUint64MaxThrowsCleanly) {
  // 2^64 - 1: pos_ (8) + n wraps to 7, under size() — the old check let
  // the read through.
  BinaryWriter writer;
  writer.write_u64(std::numeric_limits<std::uint64_t>::max());
  {
    BinaryReader reader(writer.bytes());
    EXPECT_THROW(reader.read_string(), std::runtime_error);
  }
  {
    BinaryReader reader(writer.bytes());
    EXPECT_THROW(reader.read_vector<std::uint8_t>(), std::runtime_error);
  }
}

TEST(Serialize, CorruptLengthAtTwoTo63ThrowsCleanly) {
  // 2^63 elements of double: n * sizeof(T) == 2^66 wraps to 0, so the old
  // check saw "0 bytes needed" and passed; the element-count guard must
  // reject it before the multiply.
  BinaryWriter writer;
  writer.write_u64(std::uint64_t{1} << 63);
  BinaryReader reader(writer.take());
  EXPECT_THROW(reader.read_vector<double>(), std::runtime_error);
}

TEST(Serialize, CorruptVectorCountWithWrappingByteSizeThrowsCleanly) {
  // (2^62) + 1 elements of u32: the product wraps to 4 — small enough to
  // "fit" — while the true size is astronomically large.
  BinaryWriter writer;
  writer.write_u64((std::uint64_t{1} << 62) + 1);
  writer.write_u32(0);  // 4 bytes present, matching the wrapped product
  BinaryReader reader(writer.take());
  EXPECT_THROW(reader.read_vector<std::uint32_t>(), std::runtime_error);
}

TEST(Table, AlignsAndCountsRows) {
  Table table({"model", "pr-auc"});
  table.row().cell("rnn").cell(0.596, 3);
  table.row().cell("gbdt").cell(0.578, 3);
  EXPECT_EQ(table.row_count(), 2u);
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("rnn"), std::string::npos);
  EXPECT_NE(rendered.find("0.596"), std::string::npos);
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("rnn,0.596"), std::string::npos);
}

TEST(Table, PercentFormatting) {
  Table table({"x"});
  table.row().cell_percent(0.0781);
  EXPECT_NE(table.to_csv().find("+7.81%"), std::string::npos);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // A pool worker that re-enters parallel_for (threaded GEMM inside a
  // sharded serving worker) must run the nested chunks inline: queueing
  // them would block on futures no free worker can ever schedule. Nest
  // two deep to cover caller-runs re-entering caller-runs.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(4 * 3 * 2);
  pool.parallel_for(4, [&](std::size_t i) {
    pool.parallel_for(3, [&](std::size_t j) {
      pool.parallel_for(2, [&](std::size_t k) {
        ++hits[(i * 3 + j) * 2 + k];
      });
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}


TEST(ArenaMap, GrowingRewritesOfOneKeyStayWithinTwiceLivePlusOneBlock) {
  // Every larger rewrite relocates the payload and strands the old bytes;
  // reclamation must keep the arena within 2 x live + one block, past the
  // point where the value outgrows a block too.
  ArenaMap map;
  const std::string key = "user:7";
  std::size_t previous = 0;
  std::size_t shrinks = 0;
  for (std::size_t len = 1; len <= 3 * ArenaMap::kBlockBytes; len += 97) {
    const std::vector<std::uint8_t> value(len, static_cast<std::uint8_t>(len));
    map.put(key, value);
    ASSERT_EQ(map.size(), 1u);
    ASSERT_EQ(map.payload_bytes(), len);
    const auto stored = map.payload(map.find(key));
    ASSERT_TRUE(std::equal(stored.begin(), stored.end(), value.begin(),
                           value.end()));
    ASSERT_LE(map.arena_bytes(), 2 * (key.size() + len) + ArenaMap::kBlockBytes)
        << "len=" << len;
    shrinks += map.arena_bytes() < previous ? 1 : 0;
    previous = map.arena_bytes();
  }
  EXPECT_GT(shrinks, 10u);
  // Erasing the last key leaves nothing live, so every block goes.
  map.erase(map.find(key));
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.arena_bytes(), 0u);
  EXPECT_EQ(map.find(key), ArenaMap::kNone);
}

TEST(ArenaMap, OpStreamMatchesReferenceAndReachesReclamation) {
  // The stream the LocalKvStore and DurableKvStore differential tests
  // replay, on the bare table: it must reach reclamation (the arena only
  // ever shrinks there), and the dense entries must hold exactly the
  // reference's keys.
  ArenaMap map;
  kvtest::KvReference ref;
  std::size_t reclaims = 0;
  std::size_t previous = 0;
  for (const kvtest::KvOp& op : kvtest::kv_op_stream(0xA7E4Aull, 12000)) {
    if (op.erase) {
      const ArenaMap::Entry e = map.find(op.key);
      ASSERT_EQ(e != ArenaMap::kNone, ref.erase(op.key));
      if (e != ArenaMap::kNone) map.erase(e);
    } else {
      map.put(op.key, op.value);
      ref.put(op.key, op.value);
    }
    const ArenaMap::Entry e = map.find(op.key);
    const auto want = ref.peek(op.key);
    ASSERT_EQ(e != ArenaMap::kNone, want.has_value());
    if (want.has_value()) {
      const auto got = map.payload(e);
      ASSERT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()), *want);
      ASSERT_EQ(map.key(e), op.key);
    }
    ASSERT_EQ(map.size(), ref.size());
    ASSERT_EQ(map.payload_bytes(), ref.value_bytes());
    reclaims += map.arena_bytes() < previous ? 1 : 0;
    previous = map.arena_bytes();
  }
  EXPECT_GE(reclaims, 2u);
  std::set<std::string> seen;
  for (ArenaMap::Entry e = 0; e < map.size(); ++e) {
    const auto want = ref.peek(std::string(map.key(e)));
    ASSERT_TRUE(want.has_value());
    const auto got = map.payload(e);
    EXPECT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()), *want);
    seen.insert(std::string(map.key(e)));
  }
  EXPECT_EQ(seen.size(), ref.size());
}

TEST(Logging, SuppressedLevelEvaluatesNoArguments) {
  // The PP_LOG_* macros must be lazy: when the level is suppressed, the
  // streamed expressions are never evaluated (a debug log in a hot loop
  // costs one branch, not a std::to_string).
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return std::string("payload");
  };
  PP_LOG_DEBUG << "dbg " << expensive();
  PP_LOG_INFO << "info " << expensive();
  PP_LOG_WARN << "warn " << expensive();
  EXPECT_EQ(evaluations, 0);
  PP_LOG_ERROR << "err " << expensive();  // enabled level does evaluate
  EXPECT_EQ(evaluations, 1);
  set_log_level(saved);
}

TEST(StopwatchTest, ElapsedNsIsMonotoneAndLapResets) {
  Stopwatch watch;
  const std::int64_t a = watch.elapsed_ns();
  EXPECT_GE(a, 0);
  volatile int sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + i;
  const std::int64_t b = watch.elapsed_ns();
  EXPECT_GE(b, a);
  // lap_ns returns the elapsed interval and restarts the clock with the
  // same reading, so consecutive laps tile time with no gap.
  Stopwatch lapper;
  for (int i = 0; i < 10000; ++i) sink = sink + i;
  const std::int64_t lap1 = lapper.lap_ns();
  EXPECT_GT(lap1, 0);
  const std::int64_t lap2 = lapper.lap_ns();
  EXPECT_GE(lap2, 0);
  EXPECT_LT(lap2, lap1 + 1000000);  // the reset actually happened
}

TEST(StopwatchTest, UnstartedTagConstructsWithoutClockRead) {
  // The disarmed-timer building block: construction must be free of clock
  // syscalls; reset() arms it.
  Stopwatch watch{Stopwatch::Unstarted{}};
  watch.reset();
  EXPECT_GE(watch.elapsed_ns(), 0);
}

}  // namespace
}  // namespace pp
