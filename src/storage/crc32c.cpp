#include "storage/crc32c.hpp"

#include <array>

namespace pp::storage {

namespace {

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

using Crc32cFn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

}  // namespace

namespace detail {

std::uint32_t crc32c_table(const void* data, std::size_t n,
                           std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

bool crc32c_sse42_available() {
#if defined(PP_SSE42_KERNELS_COMPILED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
#else
  return false;
#endif
}

}  // namespace detail

std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed) {
  static const Crc32cFn lane = detail::crc32c_sse42_available()
                                   ? &detail::crc32c_sse42
                                   : &detail::crc32c_table;
  return lane(data, n, seed);
}

}  // namespace pp::storage
