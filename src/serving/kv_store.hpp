// In-memory key-value store standing in for the "real-time data store
// similar to Redis" of §9. Fully instrumented: every get/put is counted
// with its byte volume, because the paper's 10x serving-cost claim is
// about exactly these numbers (1 hidden-state lookup vs ~20 aggregation
// lookups backed by thousands of live keys per user).
//
// `KvStore` is the interface the serving tier programs against
// (HiddenStateStore, AggregationService). `LocalKvStore` is one
// arena-backed hash table (util/arena_map.hpp) behind one mutex, fine for
// a single-threaded replay: keys and values sit back to back in 64 KiB
// blocks, so a user's 160-B int8 state record costs ~209 B of RAM with its
// key, entry and probe slots.
// `ShardedKvStore` hash-partitions the key space over N independent
// LocalKvStore shards (per-shard mutex + stats) so concurrent callers can
// hit the store without serializing on one lock;
// size / value_bytes / stats merge across shards.
//
// Every live LocalKvStore (so every shard) and DurableKvStore reports its
// KvStats to obs::MetricsRegistry::global() as unlabeled pp_kv_<field>
// gauges, summed across live stores.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/arena_map.hpp"
#include "util/mutex.hpp"

namespace pp::serving {

struct KvStats {
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t writes = 0;
  std::size_t deletes = 0;
  std::size_t bytes_read = 0;
  std::size_t bytes_written = 0;

  KvStats& operator+=(const KvStats& other) {
    lookups += other.lookups;
    hits += other.hits;
    writes += other.writes;
    deletes += other.deletes;
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
    return *this;
  }
};

/// Emits every field as a pp_kv_<field> series (a store's collector).
void emit_kv_stats(const KvStats& stats, const obs::Emit& emit);

class KvStore {
 public:
  virtual ~KvStore() = default;

  virtual std::optional<std::vector<std::uint8_t>> get(
      const std::string& key) = 0;
  virtual void put(const std::string& key,
                   std::vector<std::uint8_t> value) = 0;
  virtual bool erase(const std::string& key) = 0;
  virtual bool contains(const std::string& key) const = 0;

  virtual std::size_t size() const = 0;
  /// Total bytes of stored values (storage footprint, §9).
  virtual std::size_t value_bytes() const = 0;

  virtual KvStats stats() const = 0;
  virtual void reset_stats() = 0;
};

/// Single table + single mutex: the store every replay used before the
/// serving tier went multi-threaded, and the per-shard building block of
/// ShardedKvStore.
class LocalKvStore final : public KvStore {
 public:
  LocalKvStore();

  std::optional<std::vector<std::uint8_t>> get(const std::string& key)
      override;
  void put(const std::string& key, std::vector<std::uint8_t> value) override;
  bool erase(const std::string& key) override;
  bool contains(const std::string& key) const override;

  std::size_t size() const override;
  std::size_t value_bytes() const override;

  KvStats stats() const override;
  void reset_stats() override;

 private:
  mutable Mutex mutex_;
  ArenaMap map_ PP_GUARDED_BY(mutex_);
  KvStats stats_ PP_GUARDED_BY(mutex_);
  obs::Collector collector_;
};

/// N-way hash-partitioned store: each key lives in exactly one shard, so
/// operations on different shards never contend. Aggregate views (size,
/// value_bytes, stats) are merged shard sums; with concurrent writers
/// they are a consistent per-shard snapshot, and exact once writers
/// quiesce (which is when the §9 cost ledger is read).
class ShardedKvStore final : public KvStore {
 public:
  explicit ShardedKvStore(std::size_t num_shards = 16);

  std::optional<std::vector<std::uint8_t>> get(const std::string& key)
      override;
  void put(const std::string& key, std::vector<std::uint8_t> value) override;
  bool erase(const std::string& key) override;
  bool contains(const std::string& key) const override;

  std::size_t size() const override;
  std::size_t value_bytes() const override;

  KvStats stats() const override;
  void reset_stats() override;

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t shard_index(const std::string& key) const;
  /// Per-shard stats (balance diagnostics for the bench).
  KvStats shard_stats(std::size_t shard) const;

 private:
  LocalKvStore& shard_for(const std::string& key);
  const LocalKvStore& shard_for(const std::string& key) const;

  std::vector<std::unique_ptr<LocalKvStore>> shards_;
};

}  // namespace pp::serving
