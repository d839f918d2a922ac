#include "storage/durable_kv_store.hpp"

#include <array>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"

namespace pp::storage {

namespace {

/// An index entry's payload: the record's segment id, value offset and
/// value length. Its framed size is the segment log's header + key + value,
/// so it is derived on read instead of stored.
using PackedLocation = std::array<std::uint8_t, 20>;

PackedLocation pack_location(const RecordLocation& loc) {
  PackedLocation out{};
  std::memcpy(out.data(), &loc.segment_id, 8);
  std::memcpy(out.data() + 8, &loc.value_offset, 8);
  std::memcpy(out.data() + 16, &loc.value_len, 4);
  return out;
}

RecordLocation location_of(const ArenaMap& index, ArenaMap::Entry e) {
  const std::span<const std::uint8_t> packed = index.payload(e);
  RecordLocation loc;
  std::memcpy(&loc.segment_id, packed.data(), 8);
  std::memcpy(&loc.value_offset, packed.data() + 8, 8);
  std::memcpy(&loc.value_len, packed.data() + 16, 4);
  loc.record_bytes = kRecordHeaderBytes + index.key(e).size() + loc.value_len;
  return loc;
}

obs::LatencyHistogram& compaction_hist() {
  static obs::LatencyHistogram& hist =
      obs::MetricsRegistry::global().histogram("pp_storage_compaction_ns");
  return hist;
}

}  // namespace

DurableKvStore::DurableKvStore(DurableKvConfig config)
    : config_(std::move(config)),
      log_(SegmentLogConfig{config_.dir, config_.segment_bytes,
                            config_.fsync_every_put}) {
  MutexLock lock(mutex_);
  log_.open([this](std::string_view key, std::span<const std::uint8_t>,
                   std::uint32_t flags, const RecordLocation& loc) {
    // The scan callback runs synchronously inside log_.open() above, on
    // this thread, which holds mutex_ — invisible to the analysis across
    // the std::function boundary.
    mutex_.assert_held();
    recover_record(key, flags, loc);
  });
  // Dead bytes = everything on disk not reachable from the rebuilt index,
  // split by whether it sits in the (never-compacted) active segment.
  // Derived after the scan rather than tracked during it: active_id() is
  // not final until every manifest segment has been replayed.
  std::size_t live_active = 0;
  for (ArenaMap::Entry e = 0; e < index_.size(); ++e) {
    const RecordLocation loc = location_of(index_, e);
    if (loc.segment_id == log_.active_id()) live_active += loc.record_bytes;
  }
  const std::size_t active_size =
      static_cast<std::size_t>(log_.disk_bytes() - log_.sealed_bytes());
  const std::size_t live_sealed = live_record_bytes_ - live_active;
  dead_bytes_active_ = active_size - live_active;
  dead_bytes_sealed_ =
      static_cast<std::size_t>(log_.sealed_bytes()) - live_sealed;
  collector_ = obs::MetricsRegistry::global().collect(
      {}, [this](const obs::Emit& emit) {
        serving::emit_kv_stats(stats(), emit);
        // The DurableKvStats fields copied from the log (segments,
        // recovered_records, ...) are exported once, as its pp_storage_*.
        const DurableKvStats d = durable_stats();
        emit("pp_durable_disk_bytes", d.disk_bytes);
        emit("pp_durable_live_record_bytes", d.live_record_bytes);
        emit("pp_durable_dead_bytes_sealed", d.dead_bytes_sealed);
        emit("pp_durable_dead_bytes_active", d.dead_bytes_active);
        emit("pp_durable_compactions", d.compactions);
        emit("pp_durable_compacted_bytes_reclaimed",
             d.compacted_bytes_reclaimed);
        const SegmentLogStats l = log_stats();
        emit("pp_storage_segments", l.segments);
        emit("pp_storage_appended_records", l.appended_records);
        emit("pp_storage_recovered_records", l.recovered_records);
        emit("pp_storage_torn_bytes_dropped", l.torn_bytes_dropped);
        emit("pp_storage_crc_rejects", l.crc_rejects);
        emit("pp_storage_rotations", l.rotations);
        emit("pp_storage_orphans_removed", l.orphans_removed);
      });
}

void DurableKvStore::recover_record(std::string_view key, std::uint32_t flags,
                                    const RecordLocation& loc) {
  const ArenaMap::Entry e = index_.find(key);
  if (e != ArenaMap::kNone) {
    const RecordLocation old = location_of(index_, e);
    live_value_bytes_ -= old.value_len;
    live_record_bytes_ -= old.record_bytes;
  }
  if ((flags & kFlagTombstone) != 0) {
    if (e != ArenaMap::kNone) index_.erase(e);
    return;
  }
  if (e != ArenaMap::kNone) {
    index_.assign(e, pack_location(loc));
  } else {
    index_.put(key, pack_location(loc));
  }
  live_value_bytes_ += loc.value_len;
  live_record_bytes_ += loc.record_bytes;
}

void DurableKvStore::account_overwrite(const RecordLocation& old) {
  if (old.segment_id == log_.active_id()) {
    dead_bytes_active_ += old.record_bytes;
  } else {
    dead_bytes_sealed_ += old.record_bytes;
  }
}

std::optional<std::vector<std::uint8_t>> DurableKvStore::get(
    const std::string& key) {
  MutexLock lock(mutex_);
  ++stats_.lookups;
  const ArenaMap::Entry e = index_.find(key);
  if (e == ArenaMap::kNone) return std::nullopt;
  ++stats_.hits;
  std::vector<std::uint8_t> value = log_.read_value(location_of(index_, e));
  stats_.bytes_read += value.size();
  return value;
}

void DurableKvStore::put(const std::string& key,
                         std::vector<std::uint8_t> value) {
  MutexLock lock(mutex_);
  ++stats_.writes;
  stats_.bytes_written += value.size();
  const std::uint64_t active_before = log_.active_id();
  const RecordLocation loc = log_.append(key, value, 0);
  if (log_.active_id() != active_before) {
    // Rotation sealed the old active segment: its dead bytes are now
    // compaction candidates.
    dead_bytes_sealed_ += dead_bytes_active_;
    dead_bytes_active_ = 0;
  }
  const ArenaMap::Entry e = index_.find(key);
  if (e != ArenaMap::kNone) {
    const RecordLocation old = location_of(index_, e);
    account_overwrite(old);
    live_value_bytes_ -= old.value_len;
    live_record_bytes_ -= old.record_bytes;
    index_.assign(e, pack_location(loc));
  } else {
    index_.put(key, pack_location(loc));
  }
  live_value_bytes_ += loc.value_len;
  live_record_bytes_ += loc.record_bytes;
  maybe_compact();
}

bool DurableKvStore::erase(const std::string& key) {
  MutexLock lock(mutex_);
  const ArenaMap::Entry e = index_.find(key);
  if (e == ArenaMap::kNone) return false;
  ++stats_.deletes;
  const std::uint64_t active_before = log_.active_id();
  const RecordLocation tomb = log_.append(key, {}, kFlagTombstone);
  if (log_.active_id() != active_before) {
    dead_bytes_sealed_ += dead_bytes_active_;
    dead_bytes_active_ = 0;
  }
  const RecordLocation old = location_of(index_, e);
  account_overwrite(old);
  live_value_bytes_ -= old.value_len;
  live_record_bytes_ -= old.record_bytes;
  index_.erase(e);
  // The tombstone is dead on arrival — it only exists to shadow sealed
  // records until compaction drops both. It always lands in the active
  // segment (appends go nowhere else).
  dead_bytes_active_ += tomb.record_bytes;
  maybe_compact();
  return true;
}

bool DurableKvStore::contains(const std::string& key) const {
  MutexLock lock(mutex_);
  return index_.find(key) != ArenaMap::kNone;
}

std::size_t DurableKvStore::size() const {
  MutexLock lock(mutex_);
  return index_.size();
}

std::size_t DurableKvStore::value_bytes() const {
  MutexLock lock(mutex_);
  return live_value_bytes_;
}

serving::KvStats DurableKvStore::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void DurableKvStore::reset_stats() {
  MutexLock lock(mutex_);
  stats_ = serving::KvStats{};
}

void DurableKvStore::flush() {
  MutexLock lock(mutex_);
  log_.sync();
}

void DurableKvStore::compact() {
  MutexLock lock(mutex_);
  compact_locked();
}

void DurableKvStore::compact_locked() {
  if (log_.segment_count() <= 1) return;
  obs::ScopedTimer compaction_timer(&compaction_hist());
  // Stream every live record that sits in a sealed segment into the
  // compacted output; records already in the active segment keep their
  // location. Index updates are staged and applied only after the commit
  // (the emitted locations are not valid before the manifest swap).
  std::vector<std::pair<ArenaMap::Entry, RecordLocation>> moved;
  const std::uint64_t active = log_.active_id();
  const std::uint64_t reclaimed =
      log_.compact_sealed([&](const SegmentLog::EmitFn& emit) {
        for (ArenaMap::Entry e = 0; e < index_.size(); ++e) {
          const RecordLocation loc = location_of(index_, e);
          if (loc.segment_id == active) continue;
          const std::vector<std::uint8_t> value = log_.read_value(loc);
          moved.emplace_back(e, emit(index_.key(e), value, 0));
        }
      });
  for (const auto& [e, loc] : moved) {
    index_.assign(e, pack_location(loc));
  }
  dead_bytes_sealed_ = 0;
  ++compactions_;
  reclaimed_bytes_ += reclaimed;
}

void DurableKvStore::maybe_compact() {
  if (config_.compact_dead_ratio <= 0.0) return;
  if (dead_bytes_sealed_ < config_.compact_min_bytes) return;
  const std::uint64_t sealed = log_.sealed_bytes();
  if (sealed == 0) return;
  if (static_cast<double>(dead_bytes_sealed_) >=
      config_.compact_dead_ratio * static_cast<double>(sealed)) {
    compact_locked();
  }
}

SegmentLogStats DurableKvStore::log_stats() const {
  MutexLock lock(mutex_);
  return log_.stats();
}

DurableKvStats DurableKvStore::durable_stats() const {
  MutexLock lock(mutex_);
  const SegmentLogStats& ls = log_.stats();
  DurableKvStats s;
  s.segments = log_.segment_count();
  s.disk_bytes = static_cast<std::size_t>(log_.disk_bytes());
  s.live_record_bytes = live_record_bytes_;
  s.dead_bytes_sealed = dead_bytes_sealed_;
  s.dead_bytes_active = dead_bytes_active_;
  s.compactions = compactions_;
  s.compacted_bytes_reclaimed = reclaimed_bytes_;
  s.recovered_records = ls.recovered_records;
  s.torn_bytes_dropped = ls.torn_bytes_dropped;
  s.crc_rejects = ls.crc_rejects;
  s.orphans_removed = ls.orphans_removed;
  s.rotations = ls.rotations;
  return s;
}

}  // namespace pp::storage
