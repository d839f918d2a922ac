// Append-only segment log — the on-disk substrate of the durable state
// tier (DurableKvStore, ReplayJournal). The design cribs the MergeTree
// parts / Keeper snapshot idioms: immutable sealed parts, one active
// append target, an atomically swapped manifest as the single source of
// truth for which parts are live.
//
// On-disk layout (one directory per log):
//
//   MANIFEST            text, atomically replaced (durable_io): format
//                       line, then one segment file name per line in
//                       REPLAY ORDER (compacted segments precede the
//                       active one regardless of id).
//   seg-000001.log ...  framed records, append-only. The last manifest
//                       entry is the active segment; all others are
//                       sealed (fsynced at seal, never written again).
//
// Record framing (little-endian, 20-byte header):
//
//   magic     u32   "PPLG" (0x474C5050)
//   flags     u32   bit 0 = tombstone
//   key_len   u32   bounded by kMaxKeyBytes
//   value_len u32   bounded by kMaxValueBytes
//   crc       u32   CRC-32C over [flags..value_len] + key + value
//   key bytes, value bytes
//
// Recovery is scan-only — there is no clean-shutdown marker and no
// persisted index, so a SIGKILL at any point leaves nothing to repair
// beyond the tail: open() replays every manifest segment through a
// callback, stops a segment's scan at the first invalid record (bad
// magic, insane length, short payload, CRC mismatch), truncates that
// torn/corrupt tail off, and garbage-collects segment files a crash left
// outside the manifest (interrupted rotation or compaction).
//
// Reads: the first read_value() of a record in the active segment loads
// that whole segment into one in-memory copy (one segment_bytes
// reservation). From then on every append extends the copy once its
// pwritev has returned, rotation empties it, and active-segment reads are
// served from it; sealed records are one pread each. The copy mirrors
// only bytes the kernel has accepted and is never written back, so it
// changes nothing on disk; a log that is never read (a journal, a store
// being bulk-loaded) never builds one.
//
// Thread-compatibility: externally synchronized. The owning store wraps
// every call in its own pp::Mutex; SegmentLog itself takes no locks.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pp::storage {

inline constexpr std::uint32_t kRecordMagic = 0x474C5050;  // "PPLG" LE
inline constexpr std::uint32_t kRecordHeaderBytes = 20;
inline constexpr std::uint32_t kFlagTombstone = 1u << 0;
/// Framing sanity bounds: the scanner rejects records claiming more, so a
/// corrupt length field can never drive a huge allocation or a far seek.
inline constexpr std::uint32_t kMaxKeyBytes = 1u << 20;
inline constexpr std::uint32_t kMaxValueBytes = 1u << 30;

/// Where a record's value lives: the pread target the index stores.
struct RecordLocation {
  std::uint64_t segment_id = 0;
  /// Byte offset of the value within its segment file.
  std::uint64_t value_offset = 0;
  std::uint32_t value_len = 0;
  /// Total framed bytes (header + key + value) — dead-byte accounting.
  std::uint64_t record_bytes = 0;
};

struct SegmentLogStats {
  std::size_t segments = 0;
  std::size_t appended_records = 0;
  /// Valid records replayed by open().
  std::size_t recovered_records = 0;
  /// Bytes cut off segment tails at open() (torn writes, corrupt records).
  std::size_t torn_bytes_dropped = 0;
  /// Records whose payload was present but failed the CRC-32C check.
  std::size_t crc_rejects = 0;
  std::size_t rotations = 0;
  /// Crash-leftover segment files removed at open().
  std::size_t orphans_removed = 0;
  /// read_value() calls served from the active segment's copy, and those
  /// that pread a sealed segment.
  std::size_t memory_reads = 0;
  std::size_t file_reads = 0;
  /// Bytes held in the active segment's copy: the active segment's size
  /// once a read has loaded it, 0 before.
  std::size_t active_copy_bytes = 0;
};

struct SegmentLogConfig {
  std::string dir;
  /// Seal the active segment once it reaches this size.
  std::size_t segment_bytes = 4u << 20;
  /// fsync the active segment after every append (per-record power-loss
  /// durability). Off by default: sealed segments and manifest swaps are
  /// always fsynced, and callers batch the active tail with sync().
  bool fsync_every_append = false;
};

class SegmentLog {
 public:
  using ScanCallback = std::function<void(
      std::string_view key, std::span<const std::uint8_t> value,
      std::uint32_t flags, const RecordLocation& loc)>;
  /// Compaction sink: append a live record to the compacted output. The
  /// returned location is only valid once compact_sealed() returns —
  /// callers stage index updates and apply them after the commit.
  using EmitFn = std::function<RecordLocation(
      std::string_view key, std::span<const std::uint8_t> value,
      std::uint32_t flags)>;

  explicit SegmentLog(SegmentLogConfig config);
  ~SegmentLog();
  SegmentLog(const SegmentLog&) = delete;
  SegmentLog& operator=(const SegmentLog&) = delete;

  /// Opens the log (creating the directory and an empty first segment as
  /// needed), removes orphan segment files, then replays every manifest
  /// segment in order through `on_record`, truncating torn tails. Call
  /// exactly once, before any append/read.
  void open(const ScanCallback& on_record);

  /// Frames and writes one record with a single pwritev straight from
  /// `key` and `value` (header on the stack): allocates nothing.
  RecordLocation append(std::string_view key,
                        std::span<const std::uint8_t> value,
                        std::uint32_t flags = 0);
  /// Not const: a read in the active segment may load its copy, and every
  /// read is counted (memory_reads / file_reads).
  std::vector<std::uint8_t> read_value(const RecordLocation& loc);
  /// fsyncs the active segment — the batch durability point when
  /// fsync_every_append is off.
  void sync();

  /// Rewrites every sealed segment: `fill` streams the records to keep
  /// through the emit sink (typically the owner's live index entries),
  /// then the manifest atomically swaps to [compacted..., active] and the
  /// replaced segments are unlinked. The active segment is untouched —
  /// its records keep their locations. A crash anywhere before the
  /// manifest swap leaves the old manifest in force (the half-written
  /// output is GC'd as an orphan on the next open). Returns bytes
  /// reclaimed (sealed bytes before minus compacted bytes after).
  std::uint64_t compact_sealed(const std::function<void(const EmitFn&)>& fill);

  std::uint64_t active_id() const;
  /// Bytes in sealed segments (the compaction candidates).
  std::uint64_t sealed_bytes() const;
  std::uint64_t disk_bytes() const;
  std::size_t segment_count() const { return segments_.size(); }
  const SegmentLogStats& stats() const { return stats_; }

 private:
  struct Segment {
    std::uint64_t id = 0;
    std::uint64_t size = 0;
    int fd = -1;
  };

  std::string segment_path(std::uint64_t id) const;
  std::string manifest_path() const;
  /// Durably replaces MANIFEST with the current segments_ order.
  void write_manifest();
  Segment create_segment(std::uint64_t id);
  void rotate();
  /// Scans one segment file through `on_record`, truncating any invalid
  /// tail; updates size/stats.
  void recover_segment(Segment& seg, const ScanCallback& on_record);
  const Segment* find_segment(std::uint64_t id) const;
  /// Writes one framed record at the end of `seg`; once the write has
  /// returned, appends the same bytes to `copy` when it is non-null.
  static void append_to(Segment& seg, std::string_view key,
                        std::span<const std::uint8_t> value,
                        std::uint32_t flags, RecordLocation* loc,
                        std::vector<std::uint8_t>* copy);
  /// Reads the active segment into active_copy_ (first active read only).
  void load_active_copy();

  SegmentLogConfig config_;
  bool opened_ = false;
  /// Manifest (replay) order; back() is the active segment.
  std::vector<Segment> segments_;
  std::uint64_t next_id_ = 1;
  /// Byte-for-byte copy of the active segment, valid while
  /// active_copy_loaded_; its size is then always segments_.back().size.
  std::vector<std::uint8_t> active_copy_;
  bool active_copy_loaded_ = false;
  SegmentLogStats stats_;
};

}  // namespace pp::storage
