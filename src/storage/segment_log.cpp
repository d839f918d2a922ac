#include "storage/segment_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "storage/crc32c.hpp"
#include "storage/durable_io.hpp"
#include "util/stopwatch.hpp"

namespace pp::storage {

namespace {

/// Storage-layer latency histograms (process-global, resolved once).
/// Always-on (not sampled): these paths do syscalls, so two clock reads
/// are noise.
struct StorageHists {
  obs::LatencyHistogram* append;
  obs::LatencyHistogram* fsync;
  obs::LatencyHistogram* recovery;
};

const StorageHists& storage_hists() {
  static const StorageHists hists = [] {
    auto& registry = obs::MetricsRegistry::global();
    return StorageHists{&registry.histogram("pp_storage_append_ns"),
                        &registry.histogram("pp_storage_fsync_ns"),
                        &registry.histogram("pp_storage_recovery_ns")};
  }();
  return hists;
}

/// ::fsync with its duration recorded (every durability point in the log
/// goes through here).
int timed_fsync(int fd) {
  if (!obs::timing_enabled()) return ::fsync(fd);
  Stopwatch watch;
  const int rc = ::fsync(fd);
  storage_hists().fsync->record(watch.elapsed_ns());
  return rc;
}

constexpr char kManifestFormatLine[] = "PPMANIFEST 1";

[[noreturn]] void fail(const char* stage, const std::string& path, int err) {
  throw std::runtime_error(std::string("SegmentLog: ") + stage +
                           " failed: " + path + ": " +
                           std::system_category().message(err));
}

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  std::memcpy(p, &v, sizeof(v));
}

std::size_t file_size(int fd, const std::string& path) {
  struct stat st{};
  if (::fstat(fd, &st) != 0) fail("fstat", path, errno);
  return static_cast<std::size_t>(st.st_size);
}

/// Reads the first `len` bytes of a segment file into `bytes`: the whole
/// file for the recovery scan (bounded by segment_bytes plus whatever a
/// crash appended), the valid prefix for the active segment's copy.
/// `bytes` ends shorter than `len` only if the file did. Returns 0, or the
/// errno of a failed pread (the caller names the file, so a read that
/// succeeds builds no path string).
int read_file(int fd, std::size_t len, std::vector<std::uint8_t>& bytes) {
  bytes.resize(len);
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::pread(fd, bytes.data() + done, bytes.size() - done,
                              static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    if (n == 0) {
      bytes.resize(done);  // concurrent truncation: scan what we saw
      break;
    }
    done += static_cast<std::size_t>(n);
  }
  return 0;
}

}  // namespace

SegmentLog::SegmentLog(SegmentLogConfig config) : config_(std::move(config)) {
  if (config_.dir.empty()) {
    throw std::invalid_argument("SegmentLog: empty directory");
  }
  if (config_.segment_bytes < kRecordHeaderBytes) {
    throw std::invalid_argument("SegmentLog: segment_bytes too small");
  }
}

SegmentLog::~SegmentLog() {
  // No finalization on purpose: recovery is scan-based, so closing fds is
  // all a clean shutdown does — a killed process is in exactly the same
  // on-disk state as a destructed one (minus un-fsynced tail bytes).
  for (Segment& seg : segments_) {
    if (seg.fd >= 0) ::close(seg.fd);
  }
  if (unlisted_.fd >= 0) ::close(unlisted_.fd);
}

std::string SegmentLog::segment_path(std::uint64_t id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.log",
                static_cast<unsigned long long>(id));
  return config_.dir + "/" + name;
}

std::string SegmentLog::manifest_path() const {
  return config_.dir + "/MANIFEST";
}

void SegmentLog::write_manifest(const Segment* next) {
  std::string text(kManifestFormatLine);
  text += '\n';
  const auto list = [&text](const Segment& seg) {
    char name[32];
    std::snprintf(name, sizeof(name), "seg-%06llu.log",
                  static_cast<unsigned long long>(seg.id));
    text += name;
    text += '\n';
  };
  for (const Segment& seg : segments_) list(seg);
  if (next != nullptr) list(*next);
  durable_write_file(manifest_path(), text.data(), text.size());
}

SegmentLog::Segment SegmentLog::create_segment(std::uint64_t id) {
  const std::string path = segment_path(id);
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) fail("create segment", path, errno);
  return Segment{id, 0, fd};
}

void SegmentLog::open(const ScanCallback& on_record) {
  if (opened_) throw std::logic_error("SegmentLog: open() called twice");
  opened_ = true;
  // Recovery latency: manifest parse + orphan sweep + full segment replay.
  obs::ScopedTimer recovery_timer(storage_hists().recovery);
  ensure_dir(config_.dir);
  discard_stale_tmp(manifest_path());

  // Parse the manifest (if any) into the ordered segment-name list.
  std::vector<std::string> names;
  bool have_manifest = false;
  if (std::FILE* f = std::fopen(manifest_path().c_str(), "rb")) {
    have_manifest = true;
    char line[256];
    bool first = true;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      std::string s(line);
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
        s.pop_back();
      }
      if (first) {
        first = false;
        if (s != kManifestFormatLine) {
          std::fclose(f);
          throw std::runtime_error("SegmentLog: unrecognized manifest format: " +
                                   manifest_path());
        }
        continue;
      }
      if (!s.empty()) names.push_back(std::move(s));
    }
    std::fclose(f);
  }

  // Directory sweep: segment files outside the manifest are crash
  // leftovers (interrupted rotation/compaction) — remove them. A dir with
  // segment files but no manifest at all is not ours to guess about.
  std::unordered_set<std::string> listed(names.begin(), names.end());
  for (const auto& entry : std::filesystem::directory_iterator(config_.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) != 0 || !name.ends_with(".log")) continue;
    if (listed.count(name) > 0) continue;
    if (!have_manifest) {
      throw std::runtime_error(
          "SegmentLog: segment files without a MANIFEST in " + config_.dir);
    }
    std::filesystem::remove(entry.path());
    ++stats_.orphans_removed;
  }

  // Replay the manifest segments in order, truncating torn tails.
  for (const std::string& name : names) {
    const std::uint64_t id =
        std::strtoull(name.c_str() + 4, nullptr, 10);  // seg-<id>.log
    if (id == 0) {
      throw std::runtime_error("SegmentLog: bad segment name in manifest: " +
                               name);
    }
    const std::string path = config_.dir + "/" + name;
    const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd < 0) fail("open segment", path, errno);
    Segment seg{id, 0, fd};
    recover_segment(seg, on_record);
    next_id_ = std::max(next_id_, id + 1);
    segments_.push_back(seg);
  }

  if (segments_.empty()) {
    segments_.push_back(create_segment(next_id_++));
    write_manifest();
  }
  stats_.segments = segments_.size();
}

void SegmentLog::recover_segment(Segment& seg, const ScanCallback& on_record) {
  const std::string path = segment_path(seg.id);
  std::vector<std::uint8_t> bytes;
  if (const int err = read_file(seg.fd, file_size(seg.fd, path), bytes)) {
    fail("pread", path, err);
  }
  std::size_t pos = 0;
  while (bytes.size() - pos >= kRecordHeaderBytes) {
    const std::uint8_t* h = bytes.data() + pos;
    if (load_u32(h) != kRecordMagic) break;
    const std::uint32_t flags = load_u32(h + 4);
    const std::uint32_t key_len = load_u32(h + 8);
    const std::uint32_t value_len = load_u32(h + 12);
    const std::uint32_t crc = load_u32(h + 16);
    if (key_len > kMaxKeyBytes || value_len > kMaxValueBytes) break;
    // Subtraction form, never addition: key_len + value_len is attacker
    // bytes and must not be allowed to wrap past the bound.
    const std::uint64_t payload =
        static_cast<std::uint64_t>(key_len) + value_len;
    if (payload > bytes.size() - pos - kRecordHeaderBytes) break;  // torn
    const std::uint8_t* body = h + kRecordHeaderBytes;
    const std::uint32_t computed =
        crc32c(body, payload, crc32c(h + 4, 12));
    if (computed != crc) {
      ++stats_.crc_rejects;
      break;
    }
    RecordLocation loc;
    loc.segment_id = seg.id;
    loc.value_offset = pos + kRecordHeaderBytes + key_len;
    loc.value_len = value_len;
    loc.record_bytes = kRecordHeaderBytes + payload;
    try {
      on_record(
          std::string_view(reinterpret_cast<const char*>(body), key_len),
          std::span<const std::uint8_t>(body + key_len, value_len), flags,
          loc);
    } catch (...) {
      break;  // caller rejected the record: keep the valid prefix
    }
    ++stats_.recovered_records;
    pos += kRecordHeaderBytes + payload;
  }
  if (pos < bytes.size()) {
    // Torn or corrupt tail: everything from the first invalid record on
    // is cut off so the segment ends at the longest valid record prefix
    // and future appends go to a clean tail.
    if (::ftruncate(seg.fd, static_cast<off_t>(pos)) != 0) {
      fail("ftruncate", path, errno);
    }
    stats_.torn_bytes_dropped += bytes.size() - pos;
  }
  seg.size = pos;
}

void SegmentLog::append_to(Segment& seg, std::string_view key,
                           std::span<const std::uint8_t> value,
                           std::uint32_t flags, RecordLocation* loc,
                           std::vector<std::uint8_t>* copy) {
  if (key.size() > kMaxKeyBytes || value.size() > kMaxValueBytes) {
    throw std::invalid_argument("SegmentLog: record exceeds framing bounds");
  }
  const std::size_t total = kRecordHeaderBytes + key.size() + value.size();
  // The record goes out as three parts straight from the caller's spans,
  // header on the stack, so an append allocates nothing. Empty keys
  // (journal records) and empty values are legal; their null data() is
  // never read for n == 0.
  std::uint8_t header[kRecordHeaderBytes] = {};
  store_u32(header, kRecordMagic);
  store_u32(header + 4, flags);
  store_u32(header + 8, static_cast<std::uint32_t>(key.size()));
  store_u32(header + 12, static_cast<std::uint32_t>(value.size()));
  std::uint32_t crc = crc32c(header + 4, 12);
  crc = crc32c(key.data(), key.size(), crc);
  crc = crc32c(value.data(), value.size(), crc);
  store_u32(header + 16, crc);

  iovec iov[3] = {
      {header, kRecordHeaderBytes},
      {const_cast<char*>(key.data()), key.size()},
      {const_cast<std::uint8_t*>(value.data()), value.size()}};
  iovec* next = iov;
  std::size_t parts = 3;
  std::size_t done = 0;
  while (done < total) {
    const ssize_t n = ::pwritev(seg.fd, next, static_cast<int>(parts),
                                static_cast<off_t>(seg.size + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("pwritev", "seg-" + std::to_string(seg.id), errno);
    }
    done += static_cast<std::size_t>(n);
    // Short write: skip the parts written in full, resume inside the next.
    auto left = static_cast<std::size_t>(n);
    while (parts > 0 && left >= next->iov_len) {
      left -= next->iov_len;
      ++next;
      --parts;
    }
    if (parts > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + left;
      next->iov_len -= left;
    }
  }
  // Only now, with every byte accepted by the kernel: a write that throws
  // above leaves the copy as short as the segment's valid prefix.
  if (copy != nullptr) {
    copy->insert(copy->end(), header, header + kRecordHeaderBytes);
    copy->insert(copy->end(), key.begin(), key.end());
    copy->insert(copy->end(), value.begin(), value.end());
  }
  if (loc != nullptr) {
    loc->segment_id = seg.id;
    loc->value_offset = seg.size + kRecordHeaderBytes + key.size();
    loc->value_len = static_cast<std::uint32_t>(value.size());
    loc->record_bytes = total;
  }
  seg.size += total;
}

void SegmentLog::rotate() {
  Segment& active = segments_.back();
  // Seal: once rotated, the segment is never written again, so its bytes
  // go to disk now — recovery of a sealed segment must never find a torn
  // tail short of media corruption.
  if (timed_fsync(active.fd) != 0) {
    fail("fsync seal", segment_path(active.id), errno);
  }
  // A rotation whose manifest write failed left its fresh segment open and
  // empty; the next attempt lists that one instead of creating another, so
  // at most one unlisted segment file exists.
  if (unlisted_.fd < 0) unlisted_ = create_segment(next_id_++);
  // The manifest lists the fresh segment before any byte lands in it; a
  // crash between create and this write leaves an orphan that open() GCs.
  // If the write fails, the sealed segment stays the append target and the
  // fresh file stays where it is: a write that failed after its rename (at
  // the directory fsync) has already listed it, and open() then recovers
  // it empty; otherwise open() removes it as an orphan.
  write_manifest(&unlisted_);
  segments_.push_back(unlisted_);
  unlisted_ = Segment{};
  // A loaded copy now mirrors the fresh, empty segment. One that grew past
  // segment_bytes for an oversized record is released instead; the next
  // active read reserves it again.
  active_copy_.clear();
  if (active_copy_.capacity() > config_.segment_bytes) {
    std::vector<std::uint8_t>().swap(active_copy_);
    active_copy_loaded_ = false;
  }
  stats_.active_copy_bytes = 0;
  ++stats_.rotations;
  stats_.segments = segments_.size();
}

RecordLocation SegmentLog::append(std::string_view key,
                                  std::span<const std::uint8_t> value,
                                  std::uint32_t flags) {
  if (!opened_) throw std::logic_error("SegmentLog: append before open()");
  // Append latency includes a possible rotation and the optional fsync.
  obs::ScopedTimer append_timer(storage_hists().append);
  const std::size_t total = kRecordHeaderBytes + key.size() + value.size();
  if (segments_.back().size > 0 &&
      segments_.back().size + total > config_.segment_bytes) {
    rotate();
  }
  RecordLocation loc;
  append_to(segments_.back(), key, value, flags, &loc,
            active_copy_loaded_ ? &active_copy_ : nullptr);
  stats_.active_copy_bytes = active_copy_.size();
  ++stats_.appended_records;
  if (config_.fsync_every_append) {
    if (timed_fsync(segments_.back().fd) != 0) {
      fail("fsync", segment_path(segments_.back().id), errno);
    }
  }
  return loc;
}

void SegmentLog::load_active_copy() {
  const Segment& active = segments_.back();
  const auto size = static_cast<std::size_t>(active.size);
  active_copy_.reserve(std::max(config_.segment_bytes, size));
  const int err = read_file(active.fd, size, active_copy_);
  if (err != 0 || active_copy_.size() != size) {
    active_copy_.clear();
    if (err != 0) fail("pread", segment_path(active.id), err);
    throw std::runtime_error("SegmentLog: short read of active segment " +
                             std::to_string(active.id));
  }
  active_copy_loaded_ = true;
  stats_.active_copy_bytes = size;
}

std::vector<std::uint8_t> SegmentLog::read_value(const RecordLocation& loc) {
  if (!segments_.empty() && loc.segment_id == segments_.back().id) {
    if (!active_copy_loaded_) load_active_copy();
    if (loc.value_offset + loc.value_len > active_copy_.size()) {
      throw std::runtime_error("SegmentLog: short value read in segment " +
                               std::to_string(loc.segment_id));
    }
    const std::uint8_t* value = active_copy_.data() + loc.value_offset;
    ++stats_.memory_reads;
    return std::vector<std::uint8_t>(value, value + loc.value_len);
  }
  const Segment* seg = find_segment(loc.segment_id);
  if (seg == nullptr) {
    throw std::logic_error("SegmentLog: read from unknown segment " +
                           std::to_string(loc.segment_id));
  }
  std::vector<std::uint8_t> value(loc.value_len);
  std::size_t done = 0;
  while (done < value.size()) {
    const ssize_t n =
        ::pread(seg->fd, value.data() + done, value.size() - done,
                static_cast<off_t>(loc.value_offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("pread", segment_path(seg->id), errno);
    }
    if (n == 0) {
      throw std::runtime_error("SegmentLog: short value read in segment " +
                               std::to_string(seg->id));
    }
    done += static_cast<std::size_t>(n);
  }
  ++stats_.file_reads;
  return value;
}

void SegmentLog::sync() {
  if (!opened_) return;
  if (timed_fsync(segments_.back().fd) != 0) {
    fail("fsync", segment_path(segments_.back().id), errno);
  }
}

std::uint64_t SegmentLog::active_id() const {
  return segments_.empty() ? 0 : segments_.back().id;
}

std::uint64_t SegmentLog::sealed_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i + 1 < segments_.size(); ++i) {
    total += segments_[i].size;
  }
  return total;
}

std::uint64_t SegmentLog::disk_bytes() const {
  std::uint64_t total = 0;
  for (const Segment& seg : segments_) total += seg.size;
  return total;
}

const SegmentLog::Segment* SegmentLog::find_segment(std::uint64_t id) const {
  for (const Segment& seg : segments_) {
    if (seg.id == id) return &seg;
  }
  return nullptr;
}

std::uint64_t SegmentLog::compact_sealed(
    const std::function<void(const EmitFn&)>& fill) {
  if (!opened_) throw std::logic_error("SegmentLog: compact before open()");
  if (segments_.size() <= 1) return 0;  // nothing sealed
  const std::uint64_t before = sealed_bytes();

  // Stream the live records into fresh output segments (rotating at the
  // configured size), created under ids the manifest does not yet list.
  std::vector<Segment> output;
  try {
    const EmitFn emit = [&](std::string_view key,
                            std::span<const std::uint8_t> value,
                            std::uint32_t flags) {
      const std::size_t total =
          kRecordHeaderBytes + key.size() + value.size();
      if (output.empty() || (output.back().size > 0 &&
                             output.back().size + total >
                                 config_.segment_bytes)) {
        output.push_back(create_segment(next_id_++));
      }
      RecordLocation loc;
      append_to(output.back(), key, value, flags, &loc, nullptr);
      return loc;
    };
    fill(emit);
    for (Segment& seg : output) {
      if (timed_fsync(seg.fd) != 0) {
        fail("fsync compacted", segment_path(seg.id), errno);
      }
    }
  } catch (...) {
    // Abort: unlink the half-written output; the manifest never saw it.
    for (Segment& seg : output) {
      ::close(seg.fd);
      ::unlink(segment_path(seg.id).c_str());
    }
    throw;
  }

  // Commit point: swap the manifest to [compacted..., active]. Before the
  // durable rename the old segment set is in force; after it the new one
  // is — there is no intermediate state a crash can expose.
  std::vector<Segment> replaced(segments_.begin(), segments_.end() - 1);
  Segment active = segments_.back();
  segments_ = std::move(output);
  segments_.push_back(active);
  try {
    write_manifest();
  } catch (...) {
    // Roll the in-memory view back to match the on-disk manifest.
    std::vector<Segment> restored = std::move(replaced);
    for (std::size_t i = 0; i + 1 < segments_.size(); ++i) {
      ::close(segments_[i].fd);
      ::unlink(segment_path(segments_[i].id).c_str());
    }
    restored.push_back(active);
    segments_ = std::move(restored);
    throw;
  }
  for (Segment& seg : replaced) {
    ::close(seg.fd);
    ::unlink(segment_path(seg.id).c_str());
  }
  stats_.segments = segments_.size();
  const std::uint64_t after = sealed_bytes();
  return before > after ? before - after : 0;
}

}  // namespace pp::storage
