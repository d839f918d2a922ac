// The `persist` tier, component half: the durable state tier's building
// blocks — CRC-32C, the durable-write idiom, the segment log's recovery
// sweeps (every-byte truncation, every-byte bit flips), DurableKvStore
// semantics (LocalKvStore-parity stats, reopen recovery, rotation,
// compaction, orphan GC), wire compatibility of the hidden-state codecs
// across store backends, and the ReplayJournal's replay-equivalence
// guarantee. The end-to-end kill/resume acceptance harness lives in
// storage_persist_test.cpp.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kv_reference.hpp"
#include "online/replay_buffer.hpp"
#include "online_test_util.hpp"
#include "serving/hidden_store.hpp"
#include "serving/kv_store.hpp"
#include "storage/crc32c.hpp"
#include "storage/durable_io.hpp"
#include "storage/durable_kv_store.hpp"
#include "storage/replay_journal.hpp"
#include "storage/segment_log.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace pp::storage {
namespace {

/// Per-test scratch directory, removed on success and kept for post-mortem
/// when the test failed (the persist tier's cleanup contract).
struct TempDir {
  std::string path;
  /// The pid keeps directories apart when ctest runs the instances of one
  /// parameterized test as concurrent processes.
  explicit TempDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("pp_storage_" + name + "_" + std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    if (::testing::Test::HasFailure()) return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string sub(const std::string& name) const { return path + "/" + name; }
};

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::vector<std::uint8_t> value_of(std::size_t i) {
  std::vector<std::uint8_t> v((i + 1) * 3);
  for (std::size_t j = 0; j < v.size(); ++j) {
    v[j] = static_cast<std::uint8_t>(i * 37 + j);
  }
  return v;
}

// --------------------------------------------------------------- CRC-32C

TEST(Crc32c, KnownAnswer) {
  // The Castagnoli check value every CRC-32C implementation must produce
  // (RFC 3720 appendix-level constant), from the dispatched entry point
  // and from the table lane every host runs.
  const char data[] = "123456789";
  EXPECT_EQ(crc32c(data, 9), 0xE3069283u);
  EXPECT_EQ(crc32c(data, 0), 0x00000000u);
  EXPECT_EQ(detail::crc32c_table(data, 9, 0), 0xE3069283u);
  EXPECT_EQ(detail::crc32c_table(data, 0, 0), 0x00000000u);
}

TEST(Crc32c, SeedChainsAcrossSplits) {
  // crc(a ++ b) == crc(b, seed = crc(a)) — the property the record framing
  // relies on to checksum header fields and payload in one pass.
  const std::string text = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32c(text.data(), text.size());
  for (std::size_t split = 0; split <= text.size(); ++split) {
    const std::uint32_t left = crc32c(text.data(), split);
    EXPECT_EQ(crc32c(text.data() + split, text.size() - split, left), whole);
  }
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Crc32cSse42, MatchesTableLaneOnEveryLengthOffsetAndChain) {
  // The hardware lane must be bit-identical to the table lane: on-disk
  // records and wire frames written on one host are read on another.
  if (!detail::crc32c_sse42_available()) {
    GTEST_SKIP() << "host lacks SSE4.2 (or crc32c_sse42.cpp was built "
                    "without -msse4.2): the hardware lane cannot run here";
  }
  const char check[] = "123456789";
  EXPECT_EQ(detail::crc32c_sse42(check, 9, 0), 0xE3069283u);
  EXPECT_EQ(detail::crc32c_sse42(check, 0, 0), 0x00000000u);

  // Every length 0..1024 plus 4 KiB and 1 MiB, at every start offset
  // modulo the 8-byte word, from several data and CRC seeds.
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  Rng seeds(2020);
  for (const std::uint64_t data_seed : {1u, 2u}) {
    const std::vector<std::uint8_t> bytes = random_bytes(kMiB + 8, data_seed);
    for (const std::uint32_t seed :
         {0u, 0xFFFFFFFFu, static_cast<std::uint32_t>(seeds())}) {
      for (std::size_t offset = 0; offset < 8; ++offset) {
        const std::uint8_t* p = bytes.data() + offset;
        std::vector<std::size_t> lengths;
        for (std::size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
        lengths.push_back(4096);
        lengths.push_back(kMiB);
        for (const std::size_t n : lengths) {
          ASSERT_EQ(detail::crc32c_sse42(p, n, seed),
                    detail::crc32c_table(p, n, seed))
              << "data seed " << data_seed << ", crc seed " << seed
              << ", offset " << offset << ", length " << n;
        }
      }
    }
  }

  // Chained calls over random cuts (zero-length parts included) equal
  // one pass, on each lane and with the lanes alternating part by part;
  // the dispatched entry point runs the hardware lane here.
  const std::vector<std::uint8_t> bytes = random_bytes(8192, 3);
  Rng rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint8_t* p = bytes.data() + rng() % 8;
    const std::size_t n = rng() % 8000;
    const std::uint32_t whole = detail::crc32c_table(p, n, 0);
    std::uint32_t hw = 0;
    std::uint32_t table = 0;
    std::uint32_t mixed = 0;
    bool hw_part = (rng() & 1u) != 0;
    for (std::size_t pos = 0; pos < n;) {
      const std::size_t len = std::min<std::size_t>(n - pos, rng() % 300);
      hw = detail::crc32c_sse42(p + pos, len, hw);
      table = detail::crc32c_table(p + pos, len, table);
      mixed = hw_part ? detail::crc32c_sse42(p + pos, len, mixed)
                      : detail::crc32c_table(p + pos, len, mixed);
      hw_part = !hw_part;
      pos += len;
    }
    ASSERT_EQ(hw, whole) << "trial " << trial;
    ASSERT_EQ(table, whole) << "trial " << trial;
    ASSERT_EQ(mixed, whole) << "trial " << trial;
    ASSERT_EQ(crc32c(p, n), whole) << "trial " << trial;
  }
}

// ------------------------------------------------------------- durable_io

TEST(DurableIo, WriteCreatesAndAtomicallyReplaces) {
  TempDir dir("durable_io");
  const std::string path = dir.sub("file.bin");
  const std::string v1 = "first contents";
  durable_write_file(path, v1.data(), v1.size());
  EXPECT_EQ(slurp(path), std::vector<std::uint8_t>(v1.begin(), v1.end()));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const std::string v2 = "second, longer contents entirely";
  durable_write_file(path, v2.data(), v2.size());
  EXPECT_EQ(slurp(path), std::vector<std::uint8_t>(v2.begin(), v2.end()));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(DurableIo, FailedRenameUnlinksTmpAndKeepsTarget) {
  TempDir dir("durable_io_fail");
  // A directory at the target path: the tmp write succeeds, the rename
  // fails — the error path must name the stage and not leak the tmp.
  const std::string path = dir.sub("target");
  std::filesystem::create_directory(path);
  const std::string data = "doomed";
  try {
    durable_write_file(path, data.data(), data.size());
    FAIL() << "rename onto a directory should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rename failed"), std::string::npos);
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(path));
}

TEST(DurableIo, DiscardStaleTmp) {
  TempDir dir("durable_io_tmp");
  const std::string path = dir.sub("file.bin");
  EXPECT_FALSE(discard_stale_tmp(path));  // nothing there
  const std::string junk = "interrupted write";
  spit(path + ".tmp", std::vector<std::uint8_t>(junk.begin(), junk.end()));
  EXPECT_TRUE(discard_stale_tmp(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// --------------------------------------------------------- DurableKvStore

TEST(DurableKv, StatsAndSemanticsMirrorLocalKvStore) {
  // The §9 cost ledgers compare lookup/byte counters across store
  // backends, so DurableKvStore must account exactly like LocalKvStore:
  // same hit/write/delete counting, same value_bytes under overwrite.
  TempDir dir("parity");
  serving::LocalKvStore local;
  DurableKvConfig config;
  config.dir = dir.sub("kv");
  DurableKvStore durable(config);
  serving::KvStore* stores[] = {&local, &durable};

  for (serving::KvStore* kv : stores) {
    kv->put("a", {1, 2, 3});
    kv->put("b", {4, 5, 6, 7});
    kv->put("a", {9});                     // overwrite shrinks
    EXPECT_TRUE(kv->get("a").has_value());  // hit
    EXPECT_FALSE(kv->get("zz").has_value());  // miss
    EXPECT_TRUE(kv->erase("b"));
    EXPECT_FALSE(kv->erase("b"));  // absent: no delete counted
    EXPECT_TRUE(kv->contains("a"));
    EXPECT_FALSE(kv->contains("b"));
  }

  EXPECT_EQ(durable.size(), local.size());
  EXPECT_EQ(durable.value_bytes(), local.value_bytes());
  EXPECT_EQ(*durable.get("a"), *local.get("a"));
  const serving::KvStats ls = local.stats();
  const serving::KvStats ds = durable.stats();
  EXPECT_EQ(ds.lookups, ls.lookups);
  EXPECT_EQ(ds.hits, ls.hits);
  EXPECT_EQ(ds.writes, ls.writes);
  EXPECT_EQ(ds.deletes, ls.deletes);
  EXPECT_EQ(ds.bytes_read, ls.bytes_read);
  EXPECT_EQ(ds.bytes_written, ls.bytes_written);

  durable.reset_stats();
  EXPECT_EQ(durable.stats().lookups, 0u);
  EXPECT_EQ(durable.stats().bytes_written, 0u);
}

TEST(DurableKv, ReopenRecoversPutsOverwritesAndTombstones) {
  TempDir dir("reopen");
  DurableKvConfig config;
  config.dir = dir.sub("kv");
  {
    DurableKvStore kv(config);
    for (std::size_t i = 0; i < 8; ++i) {
      kv.put("key" + std::to_string(i), value_of(i));
    }
    kv.put("key3", {0xAA, 0xBB});  // overwrite
    kv.erase("key5");              // tombstone
    // No flush, no clean close: the destructor only closes fds, so this
    // is the on-disk state a SIGKILL would leave (modulo the page cache,
    // which a same-system reopen reads through).
  }
  DurableKvStore kv(config);
  EXPECT_EQ(kv.size(), 7u);
  for (std::size_t i = 0; i < 8; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (i == 5) {
      EXPECT_FALSE(kv.contains(key));
    } else if (i == 3) {
      EXPECT_EQ(*kv.get(key), (std::vector<std::uint8_t>{0xAA, 0xBB}));
    } else {
      EXPECT_EQ(*kv.get(key), value_of(i));
    }
  }
  const DurableKvStats ds = kv.durable_stats();
  EXPECT_EQ(ds.recovered_records, 10u);  // 8 puts + overwrite + tombstone
  EXPECT_EQ(ds.torn_bytes_dropped, 0u);
  EXPECT_EQ(ds.crc_rejects, 0u);
  // The overwritten and erased records (and the tombstone itself) are
  // dead; everything reachable is live.
  EXPECT_GT(ds.dead_bytes_sealed + ds.dead_bytes_active, 0u);
  EXPECT_EQ(ds.live_record_bytes + ds.dead_bytes_sealed + ds.dead_bytes_active,
            ds.disk_bytes);
}

TEST(DurableKv, RotationSealsSegmentsAndSurvivesReopen) {
  TempDir dir("rotate");
  DurableKvConfig config;
  config.dir = dir.sub("kv");
  config.segment_bytes = 256;  // force frequent rotation
  {
    DurableKvStore kv(config);
    for (std::size_t i = 0; i < 40; ++i) {
      kv.put("key" + std::to_string(i), value_of(i % 10));
    }
    EXPECT_GT(kv.durable_stats().segments, 3u);
    EXPECT_GT(kv.durable_stats().rotations, 2u);
  }
  DurableKvStore kv(config);
  EXPECT_EQ(kv.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(*kv.get("key" + std::to_string(i)), value_of(i % 10));
  }
}

TEST(DurableKv, CompactionReclaimsDeadBytes) {
  TempDir dir("compact");
  DurableKvConfig config;
  config.dir = dir.sub("kv");
  config.segment_bytes = 512;
  config.compact_dead_ratio = 0;  // manual compaction only
  DurableKvStore kv(config);
  // Hammer a small key set: almost every sealed byte is a dead overwrite.
  for (std::size_t round = 0; round < 30; ++round) {
    for (std::size_t i = 0; i < 8; ++i) {
      kv.put("key" + std::to_string(i), value_of((round + i) % 12));
    }
  }
  kv.erase("key7");

  const DurableKvStats before = kv.durable_stats();
  ASSERT_GT(before.dead_bytes_sealed, 0u);
  ASSERT_GT(before.disk_bytes, 2 * before.live_record_bytes)
      << "setup should leave mostly dead bytes on disk";

  kv.compact();

  const DurableKvStats after = kv.durable_stats();
  EXPECT_EQ(after.compactions, 1u);
  EXPECT_EQ(after.dead_bytes_sealed, 0u);
  EXPECT_GT(after.compacted_bytes_reclaimed, 0u);
  EXPECT_LT(after.disk_bytes, before.disk_bytes);
  // Live bytes are untouched by compaction — only dead weight went away.
  EXPECT_EQ(after.live_record_bytes, before.live_record_bytes);
  EXPECT_LE(after.disk_bytes,
            after.live_record_bytes + after.dead_bytes_active);

  // Contents intact, before and after a reopen.
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(*kv.get("key" + std::to_string(i)), value_of((29 + i) % 12));
  }
  EXPECT_FALSE(kv.contains("key7"));
}

TEST(DurableKv, CompactedStoreReopensIntact) {
  TempDir dir("compact_reopen");
  DurableKvConfig config;
  config.dir = dir.sub("kv");
  config.segment_bytes = 512;
  config.compact_dead_ratio = 0;
  {
    DurableKvStore kv(config);
    for (std::size_t round = 0; round < 20; ++round) {
      for (std::size_t i = 0; i < 6; ++i) {
        kv.put("key" + std::to_string(i), value_of((round * 7 + i) % 12));
      }
    }
    kv.compact();
    kv.put("post", {1, 2, 3});  // appends continue after the swap
  }
  DurableKvStore kv(config);
  EXPECT_EQ(kv.size(), 7u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(*kv.get("key" + std::to_string(i)),
              value_of((19 * 7 + i) % 12));
  }
  EXPECT_EQ(*kv.get("post"), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(DurableKv, AutoCompactionTriggersInline) {
  TempDir dir("auto_compact");
  DurableKvConfig config;
  config.dir = dir.sub("kv");
  config.segment_bytes = 256;
  config.compact_dead_ratio = 0.5;
  config.compact_min_bytes = 1024;
  DurableKvStore kv(config);
  for (std::size_t round = 0; round < 60; ++round) {
    for (std::size_t i = 0; i < 4; ++i) {
      kv.put("key" + std::to_string(i), value_of(8));
    }
  }
  EXPECT_GE(kv.durable_stats().compactions, 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(*kv.get("key" + std::to_string(i)), value_of(8));
  }
}

TEST(DurableKv, OrphanSegmentsRemovedAndBareSegmentsRejected) {
  TempDir dir("orphans");
  DurableKvConfig config;
  config.dir = dir.sub("kv");
  {
    DurableKvStore kv(config);
    kv.put("key", {1});
  }
  // A segment file the manifest does not list — the debris of a crash
  // mid-rotation or mid-compaction — is garbage-collected at open.
  spit(config.dir + "/seg-000099.log", {0xDE, 0xAD});
  {
    DurableKvStore kv(config);
    EXPECT_EQ(kv.durable_stats().orphans_removed, 1u);
    EXPECT_EQ(*kv.get("key"), (std::vector<std::uint8_t>{1}));
  }
  EXPECT_FALSE(std::filesystem::exists(config.dir + "/seg-000099.log"));
  // Segment files with no MANIFEST at all are not ours to guess about.
  std::filesystem::remove(config.dir + "/MANIFEST");
  EXPECT_THROW(DurableKvStore{config}, std::runtime_error);
}

/// The active segment: the last file the MANIFEST lists.
std::string active_segment(const std::string& dir) {
  std::ifstream in(dir + "/MANIFEST");
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  return dir + "/" + last;
}

TEST(DurableKv, MatchesUnorderedMapReferenceThroughReopenCompactAndTornTail) {
  // kv_reference.hpp's seeded stream (the LocalKvStore differential's),
  // checked op by op; inside the loop the store is reopened, compacted,
  // and has the record of its latest op torn off the log's tail, after
  // which that op must be gone and the key back as it was.
  TempDir dir("differential");
  DurableKvConfig config;
  config.dir = dir.sub("kv");
  config.segment_bytes = 64u << 10;  // many sealed segments to compact
  auto store = std::make_unique<DurableKvStore>(config);
  kvtest::KvReference ref;
  // Reads served from the active segment's copy and from the files,
  // summed over every instance.
  std::size_t memory_reads = 0, file_reads = 0;
  const auto close = [&] {
    if (store == nullptr) return;
    const SegmentLogStats l = store->log_stats();
    memory_reads += l.memory_reads;
    file_reads += l.file_reads;
    store.reset();
  };
  const auto reopen = [&] {
    close();
    store = std::make_unique<DurableKvStore>(config);
    ref.reset_stats();  // KvStats count this instance's traffic
  };
  std::size_t tears = 0, reopens = 0, compactions = 0;
  const std::vector<kvtest::KvOp> ops = kvtest::kv_op_stream(0xD0C5ull, 12000);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    const kvtest::KvOp& op = ops[i];
    const std::optional<std::vector<std::uint8_t>> before = ref.peek(op.key);
    // Every put appends a record; an erase only when the key is live.
    const bool appends = !op.erase || before.has_value();
    kvtest::apply_both(*store, ref, op);
    if (i % 2500 == 1249 && appends) {
      close();
      const std::string segment = active_segment(config.dir);
      std::filesystem::resize_file(segment,
                                   std::filesystem::file_size(segment) - 1);
      reopen();
      ref.restore(op.key, before);
      EXPECT_EQ(store->durable_stats().torn_bytes_dropped,
                kRecordHeaderBytes + op.key.size() + op.value.size() - 1);
      ++tears;
    } else if (i % 1500 == 749) {
      reopen();
      ++reopens;
    } else if (i % 2000 == 999) {
      const std::size_t done = store->durable_stats().compactions;
      store->compact();
      compactions += store->durable_stats().compactions - done;
    }
    kvtest::expect_matches(*store, ref, op.key);
    const DurableKvStats ds = store->durable_stats();
    EXPECT_EQ(ds.live_record_bytes + ds.dead_bytes_sealed +
                  ds.dead_bytes_active,
              ds.disk_bytes);
    if (i % 500 == 499) kvtest::expect_same_contents(*store, ref);
    if (::testing::Test::HasFailure()) return;
  }
  reopen();
  kvtest::expect_same_contents(*store, ref);
  EXPECT_EQ(store->value_bytes(), ref.value_bytes());
  EXPECT_GE(tears, 4u);
  EXPECT_GE(reopens, 6u);
  EXPECT_EQ(compactions, 6u);
  EXPECT_GE(store->durable_stats().segments, 2u);
  // Both read paths ran: active-segment records from the copy, sealed and
  // compacted ones from the files.
  close();
  EXPECT_GT(memory_reads, 0u);
  EXPECT_GT(file_reads, 0u);
}

// ------------------------------------------------- active-segment copy

std::size_t active_segment_bytes(const std::string& dir) {
  return static_cast<std::size_t>(
      std::filesystem::file_size(active_segment(dir)));
}

TEST(DurableKv, ActiveSegmentReadsMatchAReopenedStoreAndSplitByWhereTheySit) {
  // Reads start only after a write-only phase, then run on through
  // rotations, empty values, tombstones, a value larger than a segment, a
  // compaction and a reopen. Every read must return what a store freshly
  // opened on the same directory returns, and count where its record sits:
  // a memory read in the active segment, a file read in a sealed or
  // compacted one.
  TempDir dir("active_copy");
  DurableKvConfig config;
  config.dir = dir.sub("kv");
  config.segment_bytes = 1024;
  config.compact_dead_ratio = 0;  // compaction only where the test asks
  auto store = std::make_unique<DurableKvStore>(config);
  // Where each live key's record sits: the number of rotations, over every
  // instance, before it was written. A record written since the latest
  // rotation is in the active segment.
  std::unordered_map<std::string, std::size_t> written_at;
  std::vector<std::string> keys;  // every key ever written
  std::size_t earlier_rotations = 0;
  const auto rotations = [&] {
    return earlier_rotations + store->log_stats().rotations;
  };
  std::size_t memory_reads = 0, file_reads = 0;  // this instance's
  const auto put = [&](const std::string& key,
                       std::vector<std::uint8_t> value) {
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
    store->put(key, std::move(value));
    written_at[key] = rotations();
  };
  const auto erase = [&](const std::string& key) {
    EXPECT_TRUE(store->erase(key));
    written_at.erase(key);
  };
  const auto read = [&](const std::string& key) {
    SCOPED_TRACE("read " + key);
    DurableKvStore reopened(config);
    ASSERT_EQ(store->get(key), reopened.get(key));
    const auto it = written_at.find(key);
    const bool active = it != written_at.end() && it->second == rotations();
    if (it != written_at.end()) ++(active ? memory_reads : file_reads);
    const SegmentLogStats l = store->log_stats();
    EXPECT_EQ(l.memory_reads, memory_reads);
    EXPECT_EQ(l.file_reads, file_reads);
    // A loaded copy is the whole active segment; an active read loads it.
    const std::size_t segment = active_segment_bytes(config.dir);
    if (active) {
      EXPECT_EQ(l.active_copy_bytes, segment);
    }
    EXPECT_TRUE(l.active_copy_bytes == 0 || l.active_copy_bytes == segment)
        << l.active_copy_bytes << " vs " << segment;
  };
  const auto read_all = [&] {
    for (const std::string& key : keys) read(key);
  };

  // Write only: puts, overwrites, an empty value and a tombstone across
  // several rotations hold no copy and count no read.
  for (std::size_t i = 0; i < 90; ++i) {
    put("key" + std::to_string(i % 24), value_of(i % 9));
  }
  put("empty", {});
  erase("key3");
  ASSERT_GT(rotations(), 2u);
  EXPECT_EQ(store->log_stats().memory_reads + store->log_stats().file_reads,
            0u);
  EXPECT_EQ(store->log_stats().active_copy_bytes, 0u);

  read_all();
  ASSERT_GT(memory_reads, 0u);
  ASSERT_GT(file_reads, 0u);

  // Appends extend the loaded copy; rotations empty it.
  const std::size_t rotated = rotations();
  for (std::size_t i = 0; i < 80; ++i) {
    const std::string key = "key" + std::to_string((i * 7) % 24);
    if (i % 11 == 5 && written_at.count(key) > 0) {
      erase(key);
    } else {
      put(key, i % 13 == 0 ? std::vector<std::uint8_t>{} : value_of(i % 9));
    }
    read(key);
    read("key" + std::to_string((i * 5) % 24));
    if (::testing::Test::HasFailure()) return;
  }
  ASSERT_GT(rotations(), rotated + 2);

  // A value larger than a segment opens a segment of its own; the copy
  // grows to hold it, and the next rotation releases the oversize copy.
  const std::size_t before_big = rotations();
  put("big", std::vector<std::uint8_t>(3 * config.segment_bytes, 0x5A));
  EXPECT_EQ(rotations(), before_big + 1);
  read("big");
  EXPECT_GT(store->log_stats().active_copy_bytes, config.segment_bytes);
  put("after big", value_of(4));
  EXPECT_EQ(rotations(), before_big + 2);
  EXPECT_EQ(store->log_stats().active_copy_bytes, 0u);
  read("big");
  read("after big");
  read_all();

  // Compaction rewrites the sealed records (read from the files) and
  // leaves the active segment, and so the copy, as it was.
  put("before compaction", value_of(2));
  const std::size_t copy = store->log_stats().active_copy_bytes;
  ASSERT_GT(copy, 0u);
  store->compact();
  EXPECT_EQ(store->durable_stats().compactions, 1u);
  EXPECT_EQ(store->log_stats().active_copy_bytes, copy);
  file_reads = store->log_stats().file_reads;  // compaction's own reads
  read_all();
  for (std::size_t i = 0; i < 30; ++i) {
    put("key" + std::to_string(i % 5), value_of(i % 7));
    read("key" + std::to_string((i + 2) % 5));
  }

  // A reopened store starts without a copy and loads it on demand.
  earlier_rotations = rotations();
  store = std::make_unique<DurableKvStore>(config);
  memory_reads = file_reads = 0;
  EXPECT_EQ(store->log_stats().active_copy_bytes, 0u);
  read_all();
  for (std::size_t i = 0; i < 40; ++i) {
    put("key" + std::to_string(i % 6), value_of(i % 9));
    read("key" + std::to_string((i + 3) % 6));
  }
  read_all();
  EXPECT_GT(memory_reads, 0u);
  EXPECT_GT(file_reads, 0u);
}

/// Caps the size of every file this process writes (RLIMIT_FSIZE) while
/// alive, with SIGXFSZ ignored so that a write past the cap fails with
/// EFBIG instead of ending the process.
class FileSizeCap {
 public:
  explicit FileSizeCap(std::uintmax_t bytes) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit cap = saved_;
    cap.rlim_cur = static_cast<rlim_t>(bytes);
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &cap), 0);
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

 private:
  rlimit saved_{};
  void (*handler_)(int) = SIG_DFL;
};

TEST(DurableKv, FailedAppendLeavesTheActiveCopyAtTheSegmentsValidPrefix) {
  // A record whose write the kernel cuts short is not in the segment's
  // valid prefix, so it must not be in the copy either: the next record
  // lands at that same offset, and reads of it must see its bytes.
  TempDir dir("copy_failed_write");
  DurableKvConfig config;
  config.dir = dir.sub("kv");
  DurableKvStore kv(config);
  kv.put("a", value_of(3));
  ASSERT_EQ(*kv.get("a"), value_of(3));  // loads the copy
  const std::string segment = active_segment(config.dir);
  {
    // The first 8 bytes of the next record fit under the cap.
    FileSizeCap cap(std::filesystem::file_size(segment) + 8);
    EXPECT_THROW(kv.put("b", value_of(5)), std::runtime_error);
  }
  EXPECT_FALSE(kv.contains("b"));
  kv.put("c", value_of(7));
  DurableKvStore reopened(config);
  EXPECT_EQ(kv.get("c"), reopened.get("c"));
  EXPECT_EQ(*kv.get("c"), value_of(7));
  EXPECT_EQ(*kv.get("a"), value_of(3));
  const SegmentLogStats l = kv.log_stats();
  EXPECT_EQ(l.memory_reads, 4u);
  EXPECT_EQ(l.file_reads, 0u);
  EXPECT_EQ(l.active_copy_bytes, std::filesystem::file_size(segment));
}

TEST(DurableKv, PutsAfterAFailedRotationSurviveAReopen) {
  // A rotation whose manifest write fails must leave the sealed segment the
  // append target, so a put acknowledged afterwards lands in a segment the
  // on-disk MANIFEST lists and reads back after a reopen.
  TempDir dir("failed_rotation");
  DurableKvConfig config;
  config.dir = dir.sub("kv");
  config.segment_bytes = 256;
  config.compact_dead_ratio = 0;
  DurableKvStore kv(config);
  // One 204-byte record per segment; ten segments make a manifest longer
  // than the cap below.
  for (std::size_t i = 0; i < 10; ++i) kv.put(std::to_string(i), value_of(60));
  ASSERT_EQ(kv.log_stats().segments, 10u);
  {
    FileSizeCap cap(100);  // MANIFEST.tmp outgrows it; the rotation throws
    EXPECT_THROW(kv.put("refused", value_of(60)), std::runtime_error);
  }
  EXPECT_FALSE(kv.contains("refused"));
  EXPECT_EQ(kv.log_stats().segments, 10u);
  kv.put("acked", value_of(7));
  ASSERT_EQ(*kv.get("acked"), value_of(7));

  DurableKvStore reopened(config);
  ASSERT_TRUE(reopened.contains("acked"));
  EXPECT_EQ(*reopened.get("acked"), value_of(7));
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(*reopened.get(std::to_string(i)), value_of(60)) << i;
  }
  EXPECT_FALSE(reopened.contains("refused"));
  // `acked` fit in the tenth segment, which stayed the append target; the
  // failed rotation's empty file was never listed and is swept as an orphan.
  EXPECT_EQ(reopened.log_stats().segments, 10u);
  EXPECT_EQ(reopened.log_stats().orphans_removed, 1u);
}

TEST(DurableKv, RefusedRotationsReuseOneUnlistedSegment) {
  // While the manifest write keeps failing, every refused put retries the
  // rotation. Each retry must list the fresh segment the first one left,
  // not create another: at most one segment file is unlisted. Closing the
  // store closes it, and the next open sweeps it, or lists it once a
  // rotation succeeds.
  TempDir dir("refused_rotations");
  DurableKvConfig config;
  config.dir = dir.sub("kv");
  config.segment_bytes = 256;
  config.compact_dead_ratio = 0;
  const auto segment_files = [&] {
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(config.dir)) {
      n += e.path().filename().string().starts_with("seg-") ? 1 : 0;
    }
    return n;
  };
  const auto refuse_five = [](DurableKvStore& kv) {
    FileSizeCap cap(100);  // MANIFEST.tmp outgrows it; each rotation throws
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_THROW(kv.put("refused" + std::to_string(i), value_of(60)),
                   std::runtime_error);
    }
  };
  {
    DurableKvStore kv(config);
    for (std::size_t i = 0; i < 10; ++i) {
      kv.put(std::to_string(i), value_of(60));
    }
    refuse_five(kv);
    EXPECT_EQ(kv.log_stats().segments, 10u);
    EXPECT_EQ(segment_files(), 11u);  // not 15
    kv.put("acked", value_of(7));     // fits in the tenth segment
  }
  {
    DurableKvStore kv(config);
    EXPECT_EQ(kv.log_stats().orphans_removed, 1u);
    EXPECT_EQ(kv.log_stats().segments, 10u);
    EXPECT_EQ(segment_files(), 10u);
    refuse_five(kv);
    EXPECT_EQ(segment_files(), 11u);
    // With the cap lifted, the rotation lists the unlisted file.
    kv.put("rotated", value_of(60));
    EXPECT_EQ(kv.log_stats().segments, 11u);
    EXPECT_EQ(segment_files(), 11u);
  }
  DurableKvStore reopened(config);
  EXPECT_EQ(reopened.log_stats().orphans_removed, 0u);
  EXPECT_EQ(reopened.log_stats().segments, 11u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(*reopened.get(std::to_string(i)), value_of(60)) << i;
  }
  EXPECT_EQ(*reopened.get("acked"), value_of(7));
  EXPECT_EQ(*reopened.get("rotated"), value_of(60));
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(reopened.contains("refused" + std::to_string(i))) << i;
  }
}

// ------------------------------------------- recovery sweeps (satellite 3)

struct SegmentImage {
  std::vector<std::uint8_t> manifest;
  std::vector<std::uint8_t> segment;
  /// Cumulative record end offsets: prefix[i] = bytes of records 0..i-1.
  std::vector<std::size_t> prefix;
  std::size_t records = 0;
};

/// Builds a single-segment store with `n` known records and returns its
/// raw on-disk image for the truncation / bit-flip sweeps.
SegmentImage build_image(const TempDir& dir, std::size_t n) {
  DurableKvConfig config;
  config.dir = dir.sub("image");
  SegmentImage image;
  image.records = n;
  image.prefix.push_back(0);
  {
    DurableKvStore kv(config);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string key = "key" + std::to_string(i);
      const std::vector<std::uint8_t> value = value_of(i);
      kv.put(key, value);
      image.prefix.push_back(image.prefix.back() + kRecordHeaderBytes +
                             key.size() + value.size());
    }
  }
  image.manifest = slurp(config.dir + "/MANIFEST");
  image.segment = slurp(config.dir + "/seg-000001.log");
  EXPECT_EQ(image.segment.size(), image.prefix.back());
  return image;
}

/// Writes one (possibly mangled) copy of the image into a fresh directory.
std::string plant_image(const TempDir& dir, const std::string& name,
                        const SegmentImage& image,
                        const std::vector<std::uint8_t>& segment_bytes) {
  const std::string sub = dir.sub(name);
  std::filesystem::create_directories(sub);
  spit(sub + "/MANIFEST", image.manifest);
  spit(sub + "/seg-000001.log", segment_bytes);
  return sub;
}

TEST(DurableKv, TornTailTruncationSweepEveryByte) {
  // Chop the segment at EVERY byte boundary and reopen: recovery must
  // yield exactly the longest valid record prefix — never throw, never
  // read out of bounds (the asan lane turns any overread fatal).
  TempDir dir("torn_sweep");
  const SegmentImage image = build_image(dir, 6);
  for (std::size_t cut = 0; cut < image.segment.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    std::vector<std::uint8_t> torn(image.segment.begin(),
                                   image.segment.begin() + cut);
    const std::string sub =
        plant_image(dir, "t" + std::to_string(cut), image, torn);
    DurableKvConfig config;
    config.dir = sub;
    DurableKvStore kv(config);
    // Longest valid prefix: every record that ends at or before the cut.
    std::size_t expected = 0;
    while (expected < image.records && image.prefix[expected + 1] <= cut) {
      ++expected;
    }
    EXPECT_EQ(kv.size(), expected);
    const DurableKvStats ds = kv.durable_stats();
    EXPECT_EQ(ds.recovered_records, expected);
    EXPECT_EQ(ds.torn_bytes_dropped, cut - image.prefix[expected]);
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(*kv.get("key" + std::to_string(i)), value_of(i));
    }
    // The torn tail was truncated off: appends land on a clean boundary
    // and survive a further reopen.
    kv.put("fresh", {7, 7});
    DurableKvStore again(config);
    EXPECT_EQ(*again.get("fresh"), (std::vector<std::uint8_t>{7, 7}));
    EXPECT_EQ(again.size(), expected + 1);
  }
}

TEST(DurableKv, BitFlipSweepRejectsCorruptRecords) {
  // Flip every byte of the segment in turn: the record containing the
  // flip must be rejected (CRC or framing), recovery keeps exactly the
  // records before it, and nothing ever crashes. Flips inside the
  // CRC-covered span (flags, the CRC field itself, key/value payload)
  // must additionally show up in the store's crc_rejects ledger.
  TempDir dir("flip_sweep");
  const SegmentImage image = build_image(dir, 4);
  std::size_t total_crc_rejects = 0;
  for (std::size_t pos = 0; pos < image.segment.size(); ++pos) {
    SCOPED_TRACE("pos=" + std::to_string(pos));
    std::vector<std::uint8_t> flipped = image.segment;
    flipped[pos] ^= 0xFF;
    const std::string sub =
        plant_image(dir, "f" + std::to_string(pos), image, flipped);
    DurableKvConfig config;
    config.dir = sub;
    DurableKvStore kv(config);

    std::size_t record = 0;  // which record the flip landed in
    while (image.prefix[record + 1] <= pos) ++record;
    EXPECT_EQ(kv.size(), record);
    EXPECT_EQ(kv.durable_stats().recovered_records, record);
    for (std::size_t i = 0; i < record; ++i) {
      EXPECT_EQ(*kv.get("key" + std::to_string(i)), value_of(i));
    }

    const std::size_t offset = pos - image.prefix[record];
    const bool in_crc_covered_span =
        (offset >= 4 && offset < 8) || offset >= 16;
    if (in_crc_covered_span) {
      EXPECT_EQ(kv.durable_stats().crc_rejects, 1u);
    }
    total_crc_rejects += kv.durable_stats().crc_rejects;
  }
  EXPECT_GT(total_crc_rejects, image.segment.size() / 2);
}

// ------------------------------------ hidden-state codec wire compatibility

TEST(HiddenStoreWire, CodecBytesIdenticalAcrossBackendsAndReopen) {
  // HiddenStateStore must be able to treat DurableKvStore as a drop-in:
  // the serialized state payload written through either backend is
  // byte-identical, and a reopened durable store hands the same bytes
  // back. int8 is the interesting codec (scale + quantized vector); f32
  // rides along.
  const data::Dataset cohort = online::testutil::drift_cohort(2, 2, 1000, 1);
  models::RnnModel model(cohort, online::testutil::small_rnn_config());

  for (const serving::StateCodec codec :
       {serving::StateCodec::kInt8, serving::StateCodec::kFloat32}) {
    SCOPED_TRACE(codec == serving::StateCodec::kInt8 ? "int8" : "float32");
    TempDir dir(codec == serving::StateCodec::kInt8 ? "wire_i8" : "wire_f32");
    serving::LocalKvStore local_kv;
    DurableKvConfig config;
    config.dir = dir.sub("kv");

    serving::StoredState state;
    state.state = model.network().infer_initial_state();
    Rng rng(7);
    for (auto& layer : state.state.layers) {
      for (auto& part : layer) {
        part = tensor::Matrix::randn(1, part.cols(), rng, 0.0f, 0.4f);
      }
    }
    state.last_update_time = 424242;
    state.updates = 17;

    {
      DurableKvStore durable_kv(config);
      serving::HiddenStateStore local_store(local_kv, codec);
      serving::HiddenStateStore durable_store(durable_kv, codec);
      local_store.put(7, state);
      durable_store.put(7, state);
      // Identical wire bytes under the identical key.
      const auto local_bytes = local_kv.get("h:7");
      const auto durable_bytes = durable_kv.get("h:7");
      ASSERT_TRUE(local_bytes.has_value());
      ASSERT_TRUE(durable_bytes.has_value());
      EXPECT_EQ(*durable_bytes, *local_bytes);
    }
    // Reopen: the recovered record is the same payload, and the codec
    // decodes it (int8 within quantization tolerance).
    DurableKvStore reopened(config);
    EXPECT_EQ(*reopened.get("h:7"), *local_kv.get("h:7"));
    serving::HiddenStateStore store(reopened, codec);
    const auto loaded = store.get(7, model.network());
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->last_update_time, 424242);
    EXPECT_EQ(loaded->updates, 17u);
    const float tol = codec == serving::StateCodec::kInt8 ? 0.02f : 1e-7f;
    EXPECT_TRUE(
        loaded->state.hidden().approx_equal(state.state.hidden(), tol));
  }
}

// ------------------------------------------------------------ ReplayJournal

using online::AdmissionPolicy;
using online::ReplayBufferConfig;
using online::SessionReplayBuffer;

void expect_equal_buffers(const SessionReplayBuffer& a,
                          const SessionReplayBuffer& b,
                          const data::Dataset& meta) {
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.user_count(), b.user_count());
  EXPECT_EQ(a.latest_time(), b.latest_time());
  const auto sa = a.stats();
  const auto sb = b.stats();
  EXPECT_EQ(sa.observed, sb.observed);
  EXPECT_EQ(sa.evicted_user_cap, sb.evicted_user_cap);
  EXPECT_EQ(sa.evicted_capacity, sb.evicted_capacity);
  EXPECT_EQ(sa.evicted_reservoir, sb.evicted_reservoir);
  EXPECT_EQ(sa.rejected_reservoir, sb.rejected_reservoir);
  // Bit-level: the retained sessions themselves must match, user by user.
  const data::Dataset da = a.snapshot(meta);
  const data::Dataset db = b.snapshot(meta);
  ASSERT_EQ(da.users.size(), db.users.size());
  for (std::size_t u = 0; u < da.users.size(); ++u) {
    EXPECT_EQ(da.users[u].user_id, db.users[u].user_id);
    ASSERT_EQ(da.users[u].sessions.size(), db.users[u].sessions.size());
    for (std::size_t s = 0; s < da.users[u].sessions.size(); ++s) {
      const data::Session& x = da.users[u].sessions[s];
      const data::Session& y = db.users[u].sessions[s];
      EXPECT_EQ(x.timestamp, y.timestamp);
      EXPECT_EQ(x.context, y.context);
      EXPECT_EQ(x.access, y.access);
    }
  }
}

/// Deterministic synthetic observation stream shared by the journal tests.
void feed_stream(std::size_t n, std::size_t offset,
                 const std::function<void(
                     std::uint64_t, std::int64_t,
                     const std::array<std::uint32_t, data::kMaxContextFields>&,
                     bool)>& sink) {
  for (std::size_t i = offset; i < offset + n; ++i) {
    const std::uint64_t user = 1 + (i * 7) % 5;
    const std::int64_t t = static_cast<std::int64_t>(1000 + i * 311);
    const std::array<std::uint32_t, data::kMaxContextFields> context =
        online::testutil::ctx(static_cast<std::uint32_t>(i % 3));
    sink(user, t, context, (i % 4) != 0);
  }
}

class ReplayJournalEquivalence
    : public ::testing::TestWithParam<AdmissionPolicy> {};

TEST_P(ReplayJournalEquivalence, ReopenRebuildsBufferBitIdentically) {
  TempDir dir("journal_eq");
  const data::Dataset meta = online::testutil::drift_cohort(1, 1, 1000, 1);
  ReplayBufferConfig buffer_config;
  buffer_config.capacity = 16;
  buffer_config.per_user_cap = 4;
  buffer_config.admission = GetParam();
  buffer_config.admission_seed = 99;

  SessionReplayBuffer live(buffer_config);
  {
    ReplayJournalConfig config;
    config.dir = dir.sub("replay");
    ReplayJournal journal(config, [](auto...) {
      FAIL() << "fresh journal should have nothing to replay";
    });
    EXPECT_EQ(journal.stats().replayed, 0u);
    feed_stream(
        100, 0,
        [&](std::uint64_t user, std::int64_t t, const auto& context,
            bool access) {
          journal.append(user, t, context, access);
          live.add(user, t, context, access);
        });
    EXPECT_EQ(journal.stats().appended, 100u);
    // Kill: no flush, no finalization.
  }

  SessionReplayBuffer rebuilt(buffer_config);
  ReplayJournalConfig config;
  config.dir = dir.sub("replay");
  ReplayJournal journal(
      config, [&](std::uint64_t user, std::int64_t t, const auto& context,
                  bool access) { rebuilt.add(user, t, context, access); });
  EXPECT_EQ(journal.stats().replayed, 100u);
  EXPECT_EQ(journal.stats().decode_rejects, 0u);
  EXPECT_EQ(journal.stats().crc_rejects, 0u);
  expect_equal_buffers(live, rebuilt, meta);

  // The rebuilt buffer must also CONTINUE identically — under kReservoir
  // that means the admission RNG cursor came back at the same position
  // (every replayed add() re-ran the same seeded draws).
  feed_stream(50, 100,
              [&](std::uint64_t user, std::int64_t t, const auto& context,
                  bool access) {
                live.add(user, t, context, access);
                journal.append(user, t, context, access);
                rebuilt.add(user, t, context, access);
              });
  expect_equal_buffers(live, rebuilt, meta);
}

INSTANTIATE_TEST_SUITE_P(Admissions, ReplayJournalEquivalence,
                         ::testing::Values(AdmissionPolicy::kFifoRecency,
                                           AdmissionPolicy::kReservoir),
                         [](const auto& info) {
                           return info.param == AdmissionPolicy::kFifoRecency
                                      ? "fifo"
                                      : "reservoir";
                         });

TEST(ReplayJournal, TornTailDroppedAndDecodeRejectsCounted) {
  TempDir dir("journal_torn");
  ReplayJournalConfig config;
  config.dir = dir.sub("replay");
  {
    ReplayJournal journal(config, [](auto...) {});
    feed_stream(10, 0,
                [&](std::uint64_t user, std::int64_t t, const auto& context,
                    bool access) { journal.append(user, t, context, access); });
  }
  {
    // A CRC-valid record whose payload is not a session (format drift):
    // must be counted and skipped, not crash the reopen. Written through
    // a raw SegmentLog on the same directory.
    SegmentLogConfig log_config;
    log_config.dir = dir.sub("replay");
    SegmentLog log(log_config);
    log.open([](std::string_view, std::span<const std::uint8_t>,
                std::uint32_t, const RecordLocation&) {});
    const std::vector<std::uint8_t> garbage = {1, 2, 3};  // wrong size
    log.append({}, garbage, 0);
  }
  std::size_t replayed = 0;
  {
    ReplayJournal journal(config,
                          [&](std::uint64_t, std::int64_t, const auto&,
                              bool) { ++replayed; });
    EXPECT_EQ(replayed, 10u);
    EXPECT_EQ(journal.stats().decode_rejects, 1u);
  }
  // Torn tail: chop bytes off the segment mid-record; the partial record
  // is dropped, everything before it replays.
  const std::string seg = dir.sub("replay") + "/seg-000001.log";
  std::vector<std::uint8_t> bytes = slurp(seg);
  bytes.resize(bytes.size() - 5);
  spit(seg, bytes);
  replayed = 0;
  ReplayJournal journal(config,
                        [&](std::uint64_t, std::int64_t, const auto&, bool) {
                          ++replayed;
                        });
  EXPECT_EQ(replayed, 10u);  // the chopped record was the garbage one
  EXPECT_GT(journal.stats().torn_bytes_dropped, 0u);
}

TEST(ActiveSegmentCopy, WriteOnlyStoreAndJournalNeverHoldOne) {
  // Only a read builds the copy: a store that is only written to (through
  // rotations, tombstones and an inline compaction) and a journal, before
  // and after a reopen, never hold one.
  TempDir dir("write_only");
  DurableKvConfig config;
  config.dir = dir.sub("kv");
  config.segment_bytes = 256;
  config.compact_min_bytes = 1024;
  for (int open = 0; open < 2; ++open) {
    DurableKvStore kv(config);
    for (std::size_t round = 0; round < 60; ++round) {
      for (std::size_t i = 0; i < 4; ++i) {
        kv.put("key" + std::to_string(i), value_of(8));
      }
      if (round % 10 == 9) kv.erase("key0");
    }
    ASSERT_GE(kv.durable_stats().compactions, 1u);
    const SegmentLogStats l = kv.log_stats();
    EXPECT_EQ(l.active_copy_bytes, 0u);
    EXPECT_EQ(l.memory_reads, 0u);
    // Compaction reads the sealed records it keeps from the files.
    EXPECT_GT(l.file_reads, 0u);
  }

  ReplayJournalConfig journal_config;
  journal_config.dir = dir.sub("replay");
  journal_config.segment_bytes = 256;
  for (int open = 0; open < 2; ++open) {
    ReplayJournal journal(journal_config, [](auto...) {});
    feed_stream(40, 0,
                [&](std::uint64_t user, std::int64_t t, const auto& context,
                    bool access) { journal.append(user, t, context, access); });
    const SegmentLogStats l = journal.log_stats();
    EXPECT_GT(l.rotations, 0u);
    EXPECT_EQ(l.active_copy_bytes, 0u);
    EXPECT_EQ(l.memory_reads + l.file_reads, 0u);
  }
}

// ------------------------------------------------------ on-disk format pin

/// The segment files and MANIFEST a log must hold, framed here from the
/// layout in segment_log.hpp with the table CRC lane, whatever lane the
/// log itself ran.
struct LogImage {
  std::size_t segment_bytes = 0;
  std::vector<std::vector<std::uint8_t>> segments{{}};

  void append(std::string_view key, std::span<const std::uint8_t> value,
              std::uint32_t flags) {
    std::vector<std::uint8_t> rec(kRecordHeaderBytes);
    const auto put_u32 = [&rec](std::size_t at, std::size_t v) {
      const auto u = static_cast<std::uint32_t>(v);
      std::memcpy(rec.data() + at, &u, sizeof(u));
    };
    put_u32(0, kRecordMagic);
    put_u32(4, flags);
    put_u32(8, key.size());
    put_u32(12, value.size());
    rec.insert(rec.end(), key.begin(), key.end());
    rec.insert(rec.end(), value.begin(), value.end());
    put_u32(16, detail::crc32c_table(
                    rec.data() + kRecordHeaderBytes,
                    rec.size() - kRecordHeaderBytes,
                    detail::crc32c_table(rec.data() + 4, 12, 0)));
    // Rotation: a record that would overflow a non-empty segment opens
    // the next one.
    if (!segments.back().empty() &&
        segments.back().size() + rec.size() > segment_bytes) {
      segments.emplace_back();
    }
    segments.back().insert(segments.back().end(), rec.begin(), rec.end());
  }

  void expect_on_disk(const std::string& dir) const {
    std::string manifest = "PPMANIFEST 1\n";
    for (std::size_t i = 0; i < segments.size(); ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "seg-%06zu.log", i + 1);
      manifest += std::string(name) + "\n";
      EXPECT_EQ(slurp(dir + "/" + name), segments[i]) << name;
    }
    EXPECT_EQ(slurp(dir + "/MANIFEST"),
              std::vector<std::uint8_t>(manifest.begin(), manifest.end()));
    std::size_t segment_files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().filename().string().rfind("seg-", 0) == 0) {
        ++segment_files;
      }
    }
    EXPECT_EQ(segment_files, segments.size());
  }
};

TEST(SegmentLogFormat, SeededLogsEqualTheirTableLaneFraming) {
  // Pins the bytes: a seeded run of puts, overwrites, empty values,
  // tombstones and rotations through DurableKvStore, and journaled
  // sessions through ReplayJournal (value encoded by BinaryWriter, the
  // layout BinaryReader decodes at replay), equal the reference framing.
  TempDir dir("format");
  DurableKvConfig kv_config;
  kv_config.dir = dir.sub("kv");
  kv_config.segment_bytes = 1024;
  kv_config.compact_dead_ratio = 0;  // no compaction: appends only
  LogImage kv_image{kv_config.segment_bytes};
  {
    DurableKvStore kv(kv_config);
    Rng rng(20);
    for (int op = 0; op < 400; ++op) {
      const std::string key = "user" + std::to_string(rng() % 24);
      if (rng() % 5 == 0 && kv.contains(key)) {
        kv.erase(key);
        kv_image.append(key, {}, kFlagTombstone);
        continue;
      }
      const std::size_t len = rng() % 200;  // 0 included: empty values
      std::vector<std::uint8_t> value = random_bytes(len, rng());
      kv_image.append(key, value, 0);
      kv.put(key, std::move(value));
    }
  }
  EXPECT_GT(kv_image.segments.size(), 20u);  // rotated throughout
  kv_image.expect_on_disk(kv_config.dir);

  ReplayJournalConfig journal_config;
  journal_config.dir = dir.sub("replay");
  // Nine 33-byte sessions fill a segment exactly: the rotation boundary.
  journal_config.segment_bytes = 9 * (kRecordHeaderBytes + 33);
  LogImage journal_image{journal_config.segment_bytes};
  {
    ReplayJournal journal(journal_config, [](auto...) {});
    feed_stream(40, 0,
                [&](std::uint64_t user, std::int64_t t, const auto& context,
                    bool access) {
                  journal.append(user, t, context, access);
                  BinaryWriter value;
                  value.write_u64(user);
                  value.write_i64(t);
                  for (const std::uint32_t c : context) value.write_u32(c);
                  value.write_pod<std::uint8_t>(access ? 1 : 0);
                  journal_image.append({}, value.bytes(), 0);
                });
  }
  EXPECT_GT(journal_image.segments.size(), 3u);
  journal_image.expect_on_disk(journal_config.dir);
}

}  // namespace
}  // namespace pp::storage
