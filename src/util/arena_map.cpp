#include "util/arena_map.hpp"

#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

namespace pp {

namespace {

/// Slots start at this count and double past a 3/4 load.
constexpr std::size_t kMinSlots = 16;

/// std::hash, finished with murmur3's fmix64. ShardedKvStore picks a shard
/// by std::hash modulo the shard count, so within a shard the low bits of
/// std::hash are constant; the finisher spreads every input bit over the
/// low 32 bits that pick the home slot.
std::uint32_t hash_key(std::string_view key) {
  std::uint64_t h = std::hash<std::string_view>{}(key);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h);
}

std::uint64_t make_slot(std::uint32_t hash, ArenaMap::Entry e) {
  return (static_cast<std::uint64_t>(hash) << 32) | (e + 1);
}

std::uint32_t slot_hash(std::uint64_t slot) {
  return static_cast<std::uint32_t>(slot >> 32);
}

ArenaMap::Entry slot_entry(std::uint64_t slot) {
  return static_cast<ArenaMap::Entry>(slot) - 1;
}

std::uint32_t checked_span(std::size_t key_len, std::size_t payload_len) {
  if (key_len > std::numeric_limits<std::uint32_t>::max() - payload_len) {
    throw std::length_error("ArenaMap: key + payload exceed 4 GiB");
  }
  return static_cast<std::uint32_t>(key_len + payload_len);
}

}  // namespace

ArenaMap::Span ArenaMap::Arena::allocate(std::uint32_t n) {
  // Reserve first: once a block is allocated, pushing it cannot throw.
  if (n > kBlockBytes) {
    blocks.reserve(blocks.size() + 1);
    blocks.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(n));
    bytes += n;
    return {static_cast<std::uint32_t>(blocks.size() - 1), 0};
  }
  if (open == kNone || kBlockBytes - used < n) {
    blocks.reserve(blocks.size() + 1);
    blocks.push_back(
        std::make_unique_for_overwrite<std::uint8_t[]>(kBlockBytes));
    bytes += kBlockBytes;
    open = static_cast<std::uint32_t>(blocks.size() - 1);
    used = 0;
  }
  const Span span{open, used};
  used += n;
  return span;
}

std::size_t ArenaMap::probe(std::string_view key, std::uint32_t hash) const {
  for (std::size_t i = hash & mask();; i = (i + 1) & mask()) {
    const std::uint64_t slot = slots_[i];
    if (slot == 0) return i;
    if (slot_hash(slot) == hash && this->key(slot_entry(slot)) == key) {
      return i;
    }
  }
}

std::size_t ArenaMap::slot_of(Entry e) const {
  const std::uint64_t want = make_slot(record(e).hash, e);
  std::size_t i = record(e).hash & mask();
  while (slots_[i] != want) i = (i + 1) & mask();
  return i;
}

ArenaMap::Entry ArenaMap::find(std::string_view key) const {
  if (size_ == 0) return kNone;
  const std::uint64_t slot = slots_[probe(key, hash_key(key))];
  return slot == 0 ? kNone : slot_entry(slot);
}

ArenaMap::Entry ArenaMap::put(std::string_view key,
                              std::span<const std::uint8_t> payload) {
  const std::uint32_t hash = hash_key(key);
  if (slots_.empty()) grow_slots();
  std::size_t i = probe(key, hash);
  if (slots_[i] != 0) {
    const Entry e = slot_entry(slots_[i]);
    assign(e, payload);
    return e;
  }
  const std::uint32_t n = checked_span(key.size(), payload.size());
  if (size_ + 1 >= kNone) throw std::length_error("ArenaMap: too many keys");
  // Everything that can throw happens before the first write.
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    grow_slots();
    i = probe(key, hash);
  }
  const Entry e = static_cast<Entry>(size_);
  if (e / kChunkEntries == records_.size()) {
    records_.reserve(records_.size() + 1);
    records_.push_back(std::make_unique<Record[]>(kChunkEntries));
  }
  const Span span = arena_.allocate(n);
  std::uint8_t* bytes = arena_.at(span.block, span.offset);
  if (!key.empty()) std::memcpy(bytes, key.data(), key.size());
  if (!payload.empty()) {
    std::memcpy(bytes + key.size(), payload.data(), payload.size());
  }
  record(e) = Record{span.block,
                     span.offset,
                     static_cast<std::uint32_t>(key.size()),
                     static_cast<std::uint32_t>(payload.size()),
                     static_cast<std::uint32_t>(payload.size()),
                     hash};
  slots_[i] = make_slot(hash, e);
  ++size_;
  payload_bytes_ += payload.size();
  live_bytes_ += n;
  return e;
}

void ArenaMap::assign(Entry e, std::span<const std::uint8_t> payload) {
  Record& r = record(e);
  const std::uint32_t n = checked_span(r.key_len, payload.size());
  const std::uint32_t len = n - r.key_len;
  const std::uint32_t old_len = r.payload_len;
  if (len > r.payload_cap) {
    // allocate() never frees a block, so the old key bytes stay readable.
    const Span span = arena_.allocate(n);
    if (r.key_len > 0) {
      std::memcpy(arena_.at(span.block, span.offset),
                  arena_.at(r.block, r.offset), r.key_len);
    }
    r.block = span.block;
    r.offset = span.offset;
    r.payload_cap = len;
  }
  if (len > 0) {
    std::memcpy(arena_.at(r.block, r.offset) + r.key_len, payload.data(),
                len);
  }
  r.payload_len = len;
  payload_bytes_ = payload_bytes_ - old_len + len;
  live_bytes_ = live_bytes_ - old_len + len;
  maybe_reclaim();
}

void ArenaMap::erase(Entry e) {
  remove_slot(slot_of(e));
  const Record gone = record(e);
  payload_bytes_ -= gone.payload_len;
  live_bytes_ -= gone.key_len + gone.payload_len;
  const Entry last = static_cast<Entry>(size_ - 1);
  if (e != last) {
    slots_[slot_of(last)] = make_slot(record(last).hash, e);
    record(e) = record(last);
  }
  --size_;
  // Keep one spare chunk, so that erase/put at a chunk boundary does not
  // free and allocate a chunk each time.
  const std::size_t needed = (size_ + kChunkEntries - 1) / kChunkEntries;
  if (records_.size() > needed + 1) records_.pop_back();
  maybe_reclaim();
}

std::string_view ArenaMap::key(Entry e) const {
  const Record& r = record(e);
  return {reinterpret_cast<const char*>(arena_.at(r.block, r.offset)),
          r.key_len};
}

std::span<const std::uint8_t> ArenaMap::payload(Entry e) const {
  const Record& r = record(e);
  return {arena_.at(r.block, r.offset) + r.key_len, r.payload_len};
}

void ArenaMap::grow_slots() {
  std::vector<std::uint64_t> grown(
      slots_.empty() ? kMinSlots : slots_.size() * 2, 0);
  const std::size_t grown_mask = grown.size() - 1;
  for (const std::uint64_t slot : slots_) {
    if (slot == 0) continue;
    std::size_t i = slot_hash(slot) & grown_mask;
    while (grown[i] != 0) i = (i + 1) & grown_mask;
    grown[i] = slot;
  }
  slots_ = std::move(grown);
}

void ArenaMap::remove_slot(std::size_t hole) {
  for (std::size_t i = (hole + 1) & mask(); slots_[i] != 0;
       i = (i + 1) & mask()) {
    // A slot may fill the hole when its home is not inside (hole, i]:
    // probing from its home then still passes the hole before reaching it.
    const std::size_t home = slot_hash(slots_[i]) & mask();
    if (((i - home) & mask()) >= ((i - hole) & mask())) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = 0;
}

void ArenaMap::maybe_reclaim() {
  const std::size_t unused_tail =
      arena_.open == kNone ? 0 : kBlockBytes - arena_.used;
  const std::size_t dead = arena_.bytes - unused_tail - live_bytes_;
  if (dead > live_bytes_) reclaim();
}

void ArenaMap::reclaim() {
  // Lay every live span out in fresh blocks first: if an allocation
  // throws, no record has moved yet.
  Arena fresh;
  std::vector<Span> spans(size_);
  for (Entry e = 0; e < size_; ++e) {
    const Record& r = record(e);
    spans[e] = fresh.allocate(r.key_len + r.payload_len);
  }
  for (Entry e = 0; e < size_; ++e) {
    Record& r = record(e);
    const std::uint32_t n = r.key_len + r.payload_len;
    if (n > 0) {
      std::memcpy(fresh.at(spans[e].block, spans[e].offset),
                  arena_.at(r.block, r.offset), n);
    }
    r.block = spans[e].block;
    r.offset = spans[e].offset;
    r.payload_cap = r.payload_len;
  }
  arena_ = std::move(fresh);
}

}  // namespace pp
