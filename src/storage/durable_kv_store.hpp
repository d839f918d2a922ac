// Crash-safe KvStore over the append-only segment log: the durable tier
// of §9's "real-time data store similar to Redis", and the gate to the
// roadmap's "millions of users" being literal — values live on disk, RAM
// holds an index from key to record location: one arena-backed hash
// table (util/arena_map.hpp) holding each key with a 20-byte location,
// ~73 B per 12-byte key, plus, once a get has read from it, a copy of the
// one active segment (at most segment_bytes, more only for a single
// oversized record).
//
//   put    append a framed record, point the index at it
//   get    index lookup, then a copy out of the active segment's
//          in-memory copy (segment_log.hpp) or one pread of a sealed one
//   erase  append a tombstone record, drop the index entry
//   open   rebuild the index by scanning the segments in manifest order
//          (last writer wins, tombstones erase), truncating torn tails
//
// Overwrites and tombstones strand dead bytes in earlier segments;
// compaction rewrites the live records of every sealed segment into fresh
// segments and atomically swaps the manifest (the same tmp+rename idiom
// as learner checkpoints), reclaiming the dead space. Auto-compaction runs
// inline on the writing thread once a dead-byte threshold trips, under the
// store mutex, so readers and writers simply queue behind a compaction
// rather than racing it.
//
// Drop-in: this is a serving::KvStore, so HiddenStateStore /
// AggregationService run on top unchanged, and the stored value bytes are
// exactly the in-memory codec payloads (int8 state records move between
// the in-memory and durable tiers byte-identically). KvStats accounting
// mirrors LocalKvStore field for field so serving-cost ledgers stay
// comparable across backends. A live store reports its KvStats,
// DurableKvStats and its log's SegmentLogStats to the global metrics
// registry (pp_kv_*, pp_durable_*, pp_storage_*), summed across stores;
// the DurableKvStats fields copied from the log go out once, as
// pp_storage_*.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "serving/kv_store.hpp"
#include "storage/segment_log.hpp"
#include "util/arena_map.hpp"
#include "util/mutex.hpp"

namespace pp::storage {

struct DurableKvConfig {
  /// Directory holding the segment log (created if missing).
  std::string dir;
  std::size_t segment_bytes = 4u << 20;
  /// fsync every put (per-record power-loss durability); off by default —
  /// seals, manifests and checkpoints always fsync, and flush() batches
  /// the active tail.
  bool fsync_every_put = false;
  /// Compact when dead bytes in sealed segments exceed this fraction of
  /// sealed bytes (and compact_min_bytes). 0 disables auto-compaction;
  /// compact() always works.
  double compact_dead_ratio = 0.5;
  std::size_t compact_min_bytes = 1u << 20;
};

/// Durability/recovery ledger, alongside the serving KvStats.
struct DurableKvStats {
  std::size_t segments = 0;
  /// Total bytes on disk vs bytes of live (reachable) records: the gap is
  /// what compaction reclaims.
  std::size_t disk_bytes = 0;
  std::size_t live_record_bytes = 0;
  std::size_t dead_bytes_sealed = 0;
  std::size_t dead_bytes_active = 0;
  std::size_t compactions = 0;
  std::size_t compacted_bytes_reclaimed = 0;
  // Copies of the log's SegmentLogStats (segments too), for callers that
  // read one struct; the metrics registry sees them only as pp_storage_*.
  std::size_t recovered_records = 0;
  std::size_t torn_bytes_dropped = 0;
  std::size_t crc_rejects = 0;
  std::size_t orphans_removed = 0;
  std::size_t rotations = 0;
};

class DurableKvStore final : public serving::KvStore {
 public:
  /// Opens the log and rebuilds the index (recovery happens here: torn
  /// tails truncated, orphan segments removed). Throws on I/O failure or
  /// an unrecognized directory.
  explicit DurableKvStore(DurableKvConfig config);

  std::optional<std::vector<std::uint8_t>> get(const std::string& key)
      override;
  void put(const std::string& key, std::vector<std::uint8_t> value) override;
  bool erase(const std::string& key) override;
  bool contains(const std::string& key) const override;

  std::size_t size() const override;
  std::size_t value_bytes() const override;

  serving::KvStats stats() const override;
  void reset_stats() override;

  /// fsyncs the active segment: everything put() so far survives power
  /// loss, not just a process kill.
  void flush();
  /// Rewrites the live records of all sealed segments and swaps the
  /// manifest. Blocks writers for the duration (same mutex).
  void compact();
  DurableKvStats durable_stats() const;
  SegmentLogStats log_stats() const;

 private:
  void recover_record(std::string_view key, std::uint32_t flags,
                      const RecordLocation& loc) PP_REQUIRES(mutex_);
  void account_overwrite(const RecordLocation& old) PP_REQUIRES(mutex_);
  void compact_locked() PP_REQUIRES(mutex_);
  /// Compacts inline once the dead-byte threshold trips.
  void maybe_compact() PP_REQUIRES(mutex_);

  DurableKvConfig config_;
  mutable Mutex mutex_;
  SegmentLog log_ PP_GUARDED_BY(mutex_);
  /// Key -> RecordLocation, packed (durable_kv_store.cpp: pack_location).
  ArenaMap index_ PP_GUARDED_BY(mutex_);
  std::size_t live_value_bytes_ PP_GUARDED_BY(mutex_) = 0;
  std::size_t live_record_bytes_ PP_GUARDED_BY(mutex_) = 0;
  /// Dead bytes split by where they sit: only the sealed share is
  /// reclaimable (compaction never touches the active segment), so the
  /// trigger ratio is computed on it. Active dead bytes migrate to the
  /// sealed counter when the segment rotates.
  std::size_t dead_bytes_sealed_ PP_GUARDED_BY(mutex_) = 0;
  std::size_t dead_bytes_active_ PP_GUARDED_BY(mutex_) = 0;
  serving::KvStats stats_ PP_GUARDED_BY(mutex_);
  std::size_t compactions_ PP_GUARDED_BY(mutex_) = 0;
  std::size_t reclaimed_bytes_ PP_GUARDED_BY(mutex_) = 0;
  obs::Collector collector_;
};

}  // namespace pp::storage
