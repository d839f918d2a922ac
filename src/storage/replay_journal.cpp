#include "storage/replay_journal.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/serialize.hpp"

namespace pp::storage {

namespace {

constexpr std::size_t kRecordValueBytes =
    sizeof(std::uint64_t) + sizeof(std::int64_t) +
    data::kMaxContextFields * sizeof(std::uint32_t) + sizeof(std::uint8_t);

}  // namespace

ReplayJournal::ReplayJournal(ReplayJournalConfig config,
                             const ReplayFn& on_session)
    : log_(SegmentLogConfig{std::move(config.dir), config.segment_bytes,
                            config.fsync_every_append}) {
  MutexLock lock(mutex_);
  log_.open([this, &on_session](std::string_view key,
                                std::span<const std::uint8_t> value,
                                std::uint32_t flags,
                                const RecordLocation& loc) {
    (void)key;
    (void)flags;
    (void)loc;
    // Synchronous callback from log_.open() on this thread, which holds
    // mutex_ — invisible to the analysis across the std::function boundary.
    mutex_.assert_held();
    BinaryReader reader(std::vector<std::uint8_t>(value.begin(), value.end()));
    std::uint64_t user_id = 0;
    std::int64_t session_start = 0;
    std::array<std::uint32_t, data::kMaxContextFields> context{};
    bool access = false;
    try {
      user_id = reader.read_u64();
      session_start = reader.read_i64();
      for (auto& c : context) c = reader.read_u32();
      access = reader.read_pod<std::uint8_t>() != 0;
      if (!reader.at_end()) {
        throw std::runtime_error("ReplayJournal: trailing bytes in record");
      }
    } catch (const std::runtime_error&) {
      // CRC-valid but undecodable (format drift): count and skip — a
      // journal replay must degrade, never crash the reopen.
      ++decode_rejects_;
      return;
    }
    ++replayed_;
    on_session(user_id, session_start, context, access);
  });
  collector_ = obs::MetricsRegistry::global().collect(
      {}, [this](const obs::Emit& emit) {
        const ReplayJournalStats s = stats();
        emit("pp_journal_appended", s.appended);
        emit("pp_journal_replayed", s.replayed);
        emit("pp_journal_decode_rejects", s.decode_rejects);
        emit("pp_journal_torn_bytes_dropped", s.torn_bytes_dropped);
        emit("pp_journal_crc_rejects", s.crc_rejects);
      });
}

void ReplayJournal::append(
    std::uint64_t user_id, std::int64_t session_start,
    const std::array<std::uint32_t, data::kMaxContextFields>& context,
    bool access) {
  // The fixed-size record is encoded on the stack, field by field in the
  // byte order BinaryReader decodes at replay.
  std::array<std::uint8_t, kRecordValueBytes> record{};
  std::uint8_t* p = record.data();
  std::memcpy(p, &user_id, sizeof(user_id));
  p += sizeof(user_id);
  std::memcpy(p, &session_start, sizeof(session_start));
  p += sizeof(session_start);
  std::memcpy(p, context.data(),
              data::kMaxContextFields * sizeof(std::uint32_t));
  record.back() = access ? 1 : 0;
  MutexLock lock(mutex_);
  log_.append({}, record, 0);
  ++appended_;
}

void ReplayJournal::flush() {
  MutexLock lock(mutex_);
  log_.sync();
}

ReplayJournalStats ReplayJournal::stats() const {
  MutexLock lock(mutex_);
  const SegmentLogStats& ls = log_.stats();
  ReplayJournalStats s;
  s.appended = appended_;
  s.replayed = replayed_;
  s.decode_rejects = decode_rejects_;
  s.torn_bytes_dropped = ls.torn_bytes_dropped;
  s.crc_rejects = ls.crc_rejects;
  return s;
}

SegmentLogStats ReplayJournal::log_stats() const {
  MutexLock lock(mutex_);
  return log_.stats();
}

}  // namespace pp::storage
