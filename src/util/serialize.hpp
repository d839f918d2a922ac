// Tiny binary (de)serialization helpers with explicit little-endian layout.
// Used for model weights, hidden states, and dataset round-trips.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace pp {

/// Append-only byte sink.
class BinaryWriter {
 public:
  template <typename T>
  void write_pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }

  void write_u32(std::uint32_t v) { write_pod(v); }
  void write_u64(std::uint64_t v) { write_pod(v); }
  void write_i64(std::int64_t v) { write_pod(v); }
  void write_f32(float v) { write_pod(v); }
  void write_f64(double v) { write_pod(v); }

  void write_string(const std::string& s) {
    write_u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  template <typename T>
  void write_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write_u64(v.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    bytes_.insert(bytes_.end(), p, p + v.size() * sizeof(T));
  }

  /// Appends n raw bytes with no length prefix (fixed-layout payloads
  /// whose size the reader derives from context, e.g. int8 state vectors).
  void write_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  /// Pre-sizes the buffer. Besides the allocation saving, writing a small
  /// header into a fresh writer at -O2 trips GCC 12's -Wstringop-overflow
  /// false positive on the inlined first growth; reserving sidesteps it.
  void reserve(std::size_t n) { bytes_.reserve(n); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

  /// Writes the accumulated buffer to a file; throws on I/O failure.
  void save_file(const std::string& path) const;

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Sequential reader over a byte buffer; throws std::runtime_error on
/// truncated input instead of reading out of bounds.
class BinaryReader {
 public:
  explicit BinaryReader(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  static BinaryReader from_file(const std::string& path);
  /// Single-open variant for "missing file = fresh start" callers: returns
  /// false when the file cannot be opened (no separate existence probe, no
  /// TOCTOU window); throws only on a short read.
  static bool try_from_file(const std::string& path, BinaryReader* out);

  template <typename T>
  T read_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::uint32_t read_u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_pod<std::uint64_t>(); }
  std::int64_t read_i64() { return read_pod<std::int64_t>(); }
  float read_f32() { return read_pod<float>(); }
  double read_f64() { return read_pod<double>(); }

  std::string read_string() {
    const std::uint64_t n = read_u64();
    require(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> read_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = read_u64();
    // The element count comes off the wire, so n * sizeof(T) must be
    // checked for wraparound before it reaches require(): a corrupt n near
    // 2^64 / sizeof(T) would otherwise pass the bounds check with a tiny
    // wrapped product and memcpy far out of bounds.
    if (n > std::numeric_limits<std::uint64_t>::max() / sizeof(T)) {
      throw std::runtime_error("BinaryReader: length field overflows");
    }
    require(n * sizeof(T));
    std::vector<T> v(static_cast<std::size_t>(n));
    std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  /// Reads n raw bytes (the write_bytes counterpart).
  void read_bytes(void* out, std::size_t n) {
    std::memcpy(out, view(n), n);
  }

  /// Passes over n bytes, or throws as a read of them would.
  void skip(std::size_t n) { view(n); }

  /// The next n bytes in place (valid while the reader lives), consumed
  /// as read_bytes would consume them: a decode with no copy.
  const std::uint8_t* view(std::size_t n) {
    require(n);
    const std::uint8_t* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }

  bool at_end() const { return pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void require(std::uint64_t n) const {
    // pos_ <= bytes_.size() is a class invariant, so the subtraction
    // cannot wrap — unlike the obvious `pos_ + n > size()`, which a
    // corrupt 64-bit length field near 2^64 overflows right past the
    // check and into an out-of-bounds memcpy. Deserialization reads
    // hostile bytes by design (torn segment tails, bit-flipped records),
    // so the inequality must be overflow-proof, not just usually right.
    if (n > bytes_.size() - pos_) {
      throw std::runtime_error("BinaryReader: truncated input");
    }
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace pp
