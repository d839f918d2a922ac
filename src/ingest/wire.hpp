// Compact binary wire codec for the streaming ingest bus (§9: events are
// "sent to a stream processing system similar to Apache Kafka, tagged by a
// unique session ID"). Two event kinds travel the wire:
//
//   context  — session start: (seq, session_id, user_id, t, context fields)
//   access   — in-session access: (seq, session_id, t)
//
// Frame layout (little-endian, fixed per kind):
//
//   [u8 magic 0xE7][u8 kind][u16 payload_len][payload][u32 crc32c]
//
// The CRC-32C (same polynomial/implementation as the storage segment log)
// covers kind + payload_len + payload, so a flipped bit anywhere after the
// magic is rejected. The decoder is incremental — it accepts arbitrary
// byte-chunk boundaries, asks for more input on a partial frame, and after
// a corrupt frame resynchronizes by scanning forward for the next magic
// byte, counting every skipped byte. Hostile input can therefore delay
// delivery but never crash the consumer or fabricate an event that fails
// its checksum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serving/stream.hpp"

namespace pp::ingest {

/// The wire carries the service's own stream events (serving/stream.hpp),
/// so the consumer hands decoded events to PrecomputeService::on_events
/// as they are.
using EventKind = serving::EventKind;
using Event = serving::StreamEvent;

inline constexpr std::uint8_t kWireMagic = 0xE7;
inline constexpr std::size_t kWireHeaderBytes = 4;   // magic+kind+len
inline constexpr std::size_t kWireTrailerBytes = 4;  // crc32c

/// Exact frame size for an event of `kind` (header + payload + crc).
std::size_t frame_size(EventKind kind);

/// Appends one framed event to `out`. Returns the encoded frame size.
std::size_t encode_event(const Event& event, std::vector<std::uint8_t>* out);

struct WireDecoderStats {
  std::uint64_t frames_decoded = 0;
  std::uint64_t crc_rejects = 0;     // checksum mismatch
  std::uint64_t header_rejects = 0;  // bad kind or payload_len for kind
  std::uint64_t resync_bytes = 0;    // bytes skipped hunting for a magic
};

/// Incremental frame decoder. feed() any byte chunks (frames may straddle
/// chunk boundaries); next() yields decoded events until the buffer holds
/// no complete frame.
class WireDecoder {
 public:
  enum class Status {
    kOk,        // *out holds a decoded event
    kNeedMore,  // no complete valid frame buffered; feed() more bytes
  };

  void feed(const std::uint8_t* data, std::size_t n);
  void feed(const std::vector<std::uint8_t>& bytes) {
    feed(bytes.data(), bytes.size());
  }

  /// Decodes the next event. Corrupt frames (bad magic/kind/length/CRC) are
  /// counted, skipped byte-by-byte to the next magic candidate, and decoding
  /// continues — kNeedMore means the remaining buffer holds no complete
  /// frame, valid or not.
  Status next(Event* out);

  /// Bytes buffered but not yet decoded (partial frame tail).
  std::size_t buffered() const { return buf_.size() - pos_; }

  const WireDecoderStats& stats() const { return stats_; }

 private:
  /// Drops `n` bytes as resync garbage and advances to the next candidate.
  void skip_garbage(std::size_t n);
  void compact();

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  WireDecoderStats stats_;
};

}  // namespace pp::ingest
