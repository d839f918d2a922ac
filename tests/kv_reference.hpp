// A seeded stream of KV mutations and a std::unordered_map reference that
// mirrors KvStore semantics and KvStats accounting: the differential
// checks of the ArenaMap-backed stores (util_test: the table itself,
// serving_test: LocalKvStore, storage_test: DurableKvStore).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serving/kv_store.hpp"
#include "util/arena_map.hpp"
#include "util/rng.hpp"

namespace pp::kvtest {

struct KvOp {
  bool erase = false;
  std::string key;
  std::vector<std::uint8_t> value;
};

/// `count` puts and erases. A quarter of the ops put a new key, so the
/// population passes several slot-table doublings; the rest rewrite a key
/// with a value of the same size, a larger one (relocated in the arena —
/// often enough to trigger reclamation), a smaller or an empty one, erase
/// it, re-put an erased key or erase one that is gone. Every fifth key
/// starts with a NUL byte and every fifth ends with one; the empty key is
/// put first, and two values are longer than an arena block.
inline std::vector<KvOp> kv_op_stream(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<std::string> keys;
  std::unordered_map<std::string, std::size_t> live;  // key -> value size
  const auto bytes = [&rng](std::size_t len) {
    std::vector<std::uint8_t> v(len);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng());
    return v;
  };
  const auto new_key = [&keys] {
    const std::string n = std::to_string(keys.size());
    switch (keys.size() % 5) {
      case 0: return std::string(1, '\0') + "nul" + n;
      case 1: return "key" + n + std::string(1, '\0');
      default: return "key:" + n;
    }
  };
  std::vector<KvOp> ops;
  ops.reserve(count);
  ops.push_back({false, "", bytes(5)});
  keys.push_back("");
  live[""] = 5;
  while (ops.size() < count) {
    KvOp op;
    const double u = rng.uniform();
    std::size_t len = 0;
    if (u < 0.25) {
      op.key = new_key();
      keys.push_back(op.key);
      len = rng.uniform_index(200);
    } else {
      op.key = keys[rng.uniform_index(keys.size())];
      const auto it = live.find(op.key);
      if (it == live.end()) {
        op.erase = u < 0.4;  // erase of an absent key, or a re-put
        len = rng.uniform_index(200);
      } else if (u < 0.35) {
        op.erase = true;
      } else if (u < 0.5) {
        len = it->second;
      } else if (u < 0.8) {
        len = it->second + 1 + rng.uniform_index(64);
      } else if (u < 0.95) {
        len = it->second / 2;
      }
    }
    if (ops.size() == count / 3 || ops.size() == 2 * count / 3) {
      op.erase = false;
      len = ArenaMap::kBlockBytes + 1000 + ops.size() % 7;
    }
    if (op.erase) {
      live.erase(op.key);
    } else {
      op.value = bytes(len);
      live[op.key] = len;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// The reference store: an unordered_map with LocalKvStore's accounting.
class KvReference {
 public:
  void put(const std::string& key, const std::vector<std::uint8_t>& value) {
    ++stats_.writes;
    stats_.bytes_written += value.size();
    restore(key, value);
  }
  bool erase(const std::string& key) {
    if (!peek(key).has_value()) return false;
    ++stats_.deletes;
    restore(key, std::nullopt);
    return true;
  }
  std::optional<std::vector<std::uint8_t>> get(const std::string& key) {
    ++stats_.lookups;
    const auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    ++stats_.hits;
    stats_.bytes_read += it->second.size();
    return it->second;
  }
  /// The stored value without counting a lookup.
  std::optional<std::vector<std::uint8_t>> peek(const std::string& key) const {
    const auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  /// Sets `key` to `value` (nullopt: absent) without counting a write.
  void restore(const std::string& key,
               const std::optional<std::vector<std::uint8_t>>& value) {
    const auto it = map_.find(key);
    if (it != map_.end()) {
      value_bytes_ -= it->second.size();
      map_.erase(it);
    }
    if (value.has_value()) {
      value_bytes_ += value->size();
      map_.emplace(key, *value);
    }
  }
  void reset_stats() { stats_ = serving::KvStats{}; }

  std::size_t size() const { return map_.size(); }
  std::size_t value_bytes() const { return value_bytes_; }
  const serving::KvStats& stats() const { return stats_; }
  const std::unordered_map<std::string, std::vector<std::uint8_t>>& map()
      const {
    return map_;
  }

 private:
  std::unordered_map<std::string, std::vector<std::uint8_t>> map_;
  std::size_t value_bytes_ = 0;
  serving::KvStats stats_;
};

/// Applies `op` to both sides, comparing erase's result.
inline void apply_both(serving::KvStore& store, KvReference& ref,
                       const KvOp& op) {
  if (op.erase) {
    EXPECT_EQ(store.erase(op.key), ref.erase(op.key));
  } else {
    store.put(op.key, op.value);
    ref.put(op.key, op.value);
  }
}

inline void expect_equal_stats(const serving::KvStats& a,
                               const serving::KvStats& b) {
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.deletes, b.deletes);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
}

/// get / contains of `key`, then size, value_bytes and stats.
inline void expect_matches(serving::KvStore& store, KvReference& ref,
                           const std::string& key) {
  ASSERT_EQ(store.get(key), ref.get(key));
  EXPECT_EQ(store.contains(key), ref.peek(key).has_value());
  EXPECT_EQ(store.size(), ref.size());
  EXPECT_EQ(store.value_bytes(), ref.value_bytes());
  expect_equal_stats(store.stats(), ref.stats());
}

/// Every reference key read back through the store.
inline void expect_same_contents(serving::KvStore& store, KvReference& ref) {
  for (const auto& [key, value] : ref.map()) {
    ASSERT_EQ(store.get(key), ref.get(key));
  }
  EXPECT_EQ(store.size(), ref.size());
  expect_equal_stats(store.stats(), ref.stats());
}

}  // namespace pp::kvtest
