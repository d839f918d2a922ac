// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) — the record
// checksum of the segment-log framing (segment_log.hpp) and of the ingest
// wire frames (ingest/wire.hpp). Chosen over CRC-32 (IEEE) for its better
// error-detection properties on short records and because it is what the
// storage systems we crib idioms from (ClickHouse MergeTree parts,
// LevelDB/RocksDB logs) frame records with, so on-disk tooling
// conventions carry over.
//
// Two lanes compute it, picked per process at first use:
//
//   SSE4.2  the `crc32` instruction over 8-byte words plus a byte tail
//           (crc32c_sse42.cpp, the only TU built with -msse4.2), when
//           that TU was compiled with its ISA and the host reports SSE4.2
//   table   byte-at-a-time, 256-entry table: the portable lane
//
// The instruction computes exactly CRC-32C, so the lanes agree bit for
// bit and the on-disk and wire bytes do not depend on the host. Measured
// on a 4-vCPU Xeon with AVX-512 (GCC 12, -O3, back-to-back chained
// calls): a 170-byte record costs 0.50 µs on the table lane and 0.026 µs
// on the SSE4.2 lane, and a 1 MiB buffer runs at 0.33 and 7.2 GB/s.
// Per-put fsync is off by default, so the table lane was a fifth of a
// durable put (learn_durable's bulk load: 2.04 → 1.63 µs per put with
// the SSE4.2 lane and the buffer-free append) and most of a log's
// recovery scan (533k records: 0.40 → 0.145 s).
#pragma once

#include <cstddef>
#include <cstdint>

namespace pp::storage {

/// One-shot or incremental CRC-32C. Chains: crc32c(b, nb, crc32c(a, na))
/// equals crc32c over the concatenation a||b. Runs the SSE4.2 lane where
/// detail::crc32c_sse42_available(), the table lane elsewhere.
std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed = 0);

namespace detail {

/// The table lane, on every host.
std::uint32_t crc32c_table(const void* data, std::size_t n,
                           std::uint32_t seed);

/// The SSE4.2 lane. Call only where crc32c_sse42_available(): built
/// without -msse4.2 it aborts.
std::uint32_t crc32c_sse42(const void* data, std::size_t n,
                           std::uint32_t seed);

/// True when crc32c_sse42.cpp was compiled with -msse4.2 and the host
/// reports SSE4.2 (cached cpuid probe).
bool crc32c_sse42_available();

}  // namespace detail

}  // namespace pp::storage
