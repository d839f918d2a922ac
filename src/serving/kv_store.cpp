#include "serving/kv_store.hpp"

#include <functional>
#include <span>

namespace pp::serving {

void emit_kv_stats(const KvStats& stats, const obs::Emit& emit) {
  emit("pp_kv_lookups", stats.lookups);
  emit("pp_kv_hits", stats.hits);
  emit("pp_kv_writes", stats.writes);
  emit("pp_kv_deletes", stats.deletes);
  emit("pp_kv_bytes_read", stats.bytes_read);
  emit("pp_kv_bytes_written", stats.bytes_written);
}

// ------------------------------------------------------------ LocalKvStore

LocalKvStore::LocalKvStore()
    : collector_(obs::MetricsRegistry::global().collect(
          {}, [this](const obs::Emit& emit) {
            emit_kv_stats(stats(), emit);
          })) {}

std::optional<std::vector<std::uint8_t>> LocalKvStore::get(
    const std::string& key) {
  MutexLock lock(mutex_);
  ++stats_.lookups;
  const ArenaMap::Entry e = map_.find(key);
  if (e == ArenaMap::kNone) return std::nullopt;
  const std::span<const std::uint8_t> value = map_.payload(e);
  ++stats_.hits;
  stats_.bytes_read += value.size();
  return std::vector<std::uint8_t>(value.begin(), value.end());
}

void LocalKvStore::put(const std::string& key,
                       std::vector<std::uint8_t> value) {
  MutexLock lock(mutex_);
  ++stats_.writes;
  stats_.bytes_written += value.size();
  map_.put(key, value);
}

bool LocalKvStore::erase(const std::string& key) {
  MutexLock lock(mutex_);
  const ArenaMap::Entry e = map_.find(key);
  if (e == ArenaMap::kNone) return false;
  ++stats_.deletes;
  map_.erase(e);
  return true;
}

bool LocalKvStore::contains(const std::string& key) const {
  MutexLock lock(mutex_);
  return map_.find(key) != ArenaMap::kNone;
}

std::size_t LocalKvStore::size() const {
  MutexLock lock(mutex_);
  return map_.size();
}

std::size_t LocalKvStore::value_bytes() const {
  MutexLock lock(mutex_);
  return map_.payload_bytes();
}

KvStats LocalKvStore::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void LocalKvStore::reset_stats() {
  MutexLock lock(mutex_);
  stats_ = KvStats{};
}

// ---------------------------------------------------------- ShardedKvStore

ShardedKvStore::ShardedKvStore(std::size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<LocalKvStore>());
  }
}

std::size_t ShardedKvStore::shard_index(const std::string& key) const {
  return std::hash<std::string>{}(key) % shards_.size();
}

LocalKvStore& ShardedKvStore::shard_for(const std::string& key) {
  return *shards_[shard_index(key)];
}

const LocalKvStore& ShardedKvStore::shard_for(const std::string& key) const {
  return *shards_[shard_index(key)];
}

std::optional<std::vector<std::uint8_t>> ShardedKvStore::get(
    const std::string& key) {
  return shard_for(key).get(key);
}

void ShardedKvStore::put(const std::string& key,
                         std::vector<std::uint8_t> value) {
  shard_for(key).put(key, std::move(value));
}

bool ShardedKvStore::erase(const std::string& key) {
  return shard_for(key).erase(key);
}

bool ShardedKvStore::contains(const std::string& key) const {
  return shard_for(key).contains(key);
}

std::size_t ShardedKvStore::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

std::size_t ShardedKvStore::value_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->value_bytes();
  return total;
}

KvStats ShardedKvStore::stats() const {
  KvStats merged;
  for (const auto& shard : shards_) merged += shard->stats();
  return merged;
}

void ShardedKvStore::reset_stats() {
  for (const auto& shard : shards_) shard->reset_stats();
}

KvStats ShardedKvStore::shard_stats(std::size_t shard) const {
  return shards_[shard]->stats();
}

}  // namespace pp::serving
