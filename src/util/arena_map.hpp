// String key -> byte payload hash table whose memory is a handful of
// large blocks rather than a heap node per key: the in-memory half of
// serving::LocalKvStore (payload = the value bytes) and the RAM index of
// storage::DurableKvStore (payload = the record's location on disk).
//
//   slots    open addressing with linear probing over 8-byte slots, each
//            (32-bit hash, entry + 1); 0 is empty. The hash's low bits
//            pick the home slot, so growth rehashes slots without reading
//            a key. Erase shifts the probe run back (no tombstones).
//   entries  dense, fixed-size chunks of per-key records (where the bytes
//            live, their lengths, the hash). Growth appends a chunk and
//            never moves a record.
//   arena    key and payload bytes, back to back, bump-allocated out of
//            fixed-size blocks; a span longer than a block gets a block of
//            its own. No entry owns an allocation, and growth never copies
//            a byte.
//
// A payload is overwritten in place when it fits the bytes its entry
// holds and relocated (key copied along) otherwise. Relocated, erased and
// shrunk bytes are dead until the dead bytes outweigh the live ones; then
// every live span is rewritten into fresh blocks and the old ones freed,
// so the arena stays within twice the live bytes plus one block.
//
// Not thread-safe: the owning store guards it with its own mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace pp {

class ArenaMap {
 public:
  /// Dense entry index in [0, size()). Stable until the next erase, which
  /// moves the last entry into the erased one's index.
  using Entry = std::uint32_t;
  static constexpr Entry kNone = ~Entry{0};

  /// Arena block size. Fixed: large enough that a block's unused tail,
  /// under one record, is < 1% of it at a 540-B f32 state record, small
  /// enough that a table of a few keys costs little.
  static constexpr std::uint32_t kBlockBytes = 64u << 10;

  /// The entry holding `key`, or kNone.
  Entry find(std::string_view key) const;
  /// Inserts `key` with `payload`, or replaces the payload of the entry
  /// already holding it (as assign() does). Returns the entry. `payload`
  /// must not point into this map.
  Entry put(std::string_view key, std::span<const std::uint8_t> payload);
  /// Replaces the payload of entry `e`: in place when it fits the bytes
  /// the entry holds, relocated otherwise.
  void assign(Entry e, std::span<const std::uint8_t> payload);
  /// Removes entry `e`; the last entry takes over index `e`.
  void erase(Entry e);

  /// Views into the arena, valid until the next put, assign or erase.
  std::string_view key(Entry e) const;
  std::span<const std::uint8_t> payload(Entry e) const;

  std::size_t size() const { return size_; }
  /// Sum of the live payload sizes.
  std::size_t payload_bytes() const { return payload_bytes_; }
  /// Bytes of the arena blocks: live key and payload bytes, dead ones, and
  /// the unused tail of the block being filled.
  std::size_t arena_bytes() const { return arena_.bytes; }

 private:
  /// Records per entry chunk.
  static constexpr std::uint32_t kChunkEntries = 4096;

  struct Record {
    std::uint32_t block = 0;
    std::uint32_t offset = 0;  // key bytes here, the payload right after
    std::uint32_t key_len = 0;
    std::uint32_t payload_len = 0;
    std::uint32_t payload_cap = 0;  // payload bytes held (≥ payload_len)
    std::uint32_t hash = 0;
  };
  struct Span {
    std::uint32_t block = 0;
    std::uint32_t offset = 0;
  };
  struct Arena {
    std::vector<std::unique_ptr<std::uint8_t[]>> blocks;
    std::size_t bytes = 0;
    /// The block being filled, and the bytes already handed out of it.
    std::uint32_t open = kNone;
    std::uint32_t used = 0;

    Span allocate(std::uint32_t n);
    std::uint8_t* at(std::uint32_t block, std::uint32_t offset) const {
      return blocks[block].get() + offset;
    }
  };

  Record& record(Entry e) {
    return records_[e / kChunkEntries][e % kChunkEntries];
  }
  const Record& record(Entry e) const {
    return records_[e / kChunkEntries][e % kChunkEntries];
  }
  std::size_t mask() const { return slots_.size() - 1; }
  /// The slot holding `key`, or the empty slot ending its probe run.
  std::size_t probe(std::string_view key, std::uint32_t hash) const;
  /// The slot holding entry `e`.
  std::size_t slot_of(Entry e) const;
  void grow_slots();
  /// Empties slot `hole`, shifting later members of its probe run back.
  void remove_slot(std::size_t hole);
  void maybe_reclaim();
  void reclaim();

  std::vector<std::uint64_t> slots_;
  std::vector<std::unique_ptr<Record[]>> records_;
  Arena arena_;
  std::size_t size_ = 0;
  std::size_t payload_bytes_ = 0;
  /// Key and payload bytes of the live entries (slack excluded).
  std::size_t live_bytes_ = 0;
};

}  // namespace pp
