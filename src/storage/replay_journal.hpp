// Durable persistence for the SessionReplayBuffer, on the same segment-log
// format as DurableKvStore. The buffer itself is never serialized —
// instead every observed session is journaled at add() time, and recovery
// replays the journal through add() again. Because both admission policies
// are deterministic functions of (config, observed stream) — including the
// seeded reservoir draws — the replayed buffer is bit-identical to the
// pre-crash one: same retained sessions, same eviction counters, same RNG
// cursor for the next admission.
//
// Record layout (value bytes; key is empty):
//
//   user_id        u64
//   session_start  i64
//   context        4 x u32   (data::kMaxContextFields)
//   access         u8
//
// Decoding goes through BinaryReader, so a record that passed the CRC but
// carries a wrong length (format drift, truncation inside the value) is
// rejected cleanly rather than read out of bounds; rejects are counted,
// never thrown.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "data/dataset.hpp"
#include "obs/metrics.hpp"
#include "storage/segment_log.hpp"
#include "util/mutex.hpp"

namespace pp::storage {

struct ReplayJournalConfig {
  std::string dir;
  std::size_t segment_bytes = 4u << 20;
  bool fsync_every_append = false;
};

struct ReplayJournalStats {
  std::size_t appended = 0;
  std::size_t replayed = 0;
  /// CRC-valid records whose payload failed to decode (wrong size/shape).
  std::size_t decode_rejects = 0;
  std::size_t torn_bytes_dropped = 0;
  std::size_t crc_rejects = 0;
};

/// Thread-safe append-side journal; replay happens once at open.
class ReplayJournal {
 public:
  using ReplayFn = std::function<void(
      std::uint64_t user_id, std::int64_t session_start,
      const std::array<std::uint32_t, data::kMaxContextFields>& context,
      bool access)>;

  /// Opens (and recovers) the journal, replaying every decodable record
  /// through `on_session` in append order. Throws on I/O failure.
  ReplayJournal(ReplayJournalConfig config, const ReplayFn& on_session);

  /// Journals one observed session. Call BEFORE feeding the session to the
  /// buffer so a crash between the two replays it rather than losing it
  /// (replaying is idempotent for the learner: the buffer sees the same
  /// observed stream either way).
  void append(std::uint64_t user_id, std::int64_t session_start,
              const std::array<std::uint32_t, data::kMaxContextFields>&
                  context,
              bool access);

  /// fsyncs the active segment (batch durability point).
  void flush();

  ReplayJournalStats stats() const;
  /// The log's own counters. A journal never reads its log back outside
  /// open(), so it never holds an active-segment copy.
  SegmentLogStats log_stats() const;

 private:
  mutable Mutex mutex_;
  SegmentLog log_ PP_GUARDED_BY(mutex_);
  std::size_t appended_ PP_GUARDED_BY(mutex_) = 0;
  std::size_t replayed_ PP_GUARDED_BY(mutex_) = 0;
  std::size_t decode_rejects_ PP_GUARDED_BY(mutex_) = 0;
  obs::Collector collector_;  // pp_journal_<field>
};

}  // namespace pp::storage
