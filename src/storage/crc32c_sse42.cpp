// SSE4.2 lane of crc32c(): the `crc32` instruction, which computes
// exactly CRC-32C, over 8-byte words and then the byte tail. Compiled
// with per-file -msse4.2 and run only when crc32c_sse42_available()
// (storage/crc32c.hpp).
//
// Like the AVX2/AVX-512 TUs, this TU instantiates no std:: template: a
// COMDAT symbol could carry SSE4.2 code into a baseline TU (ci/lint.sh
// --binary checks the objects).
#include "storage/crc32c.hpp"

#if defined(__SSE4_2__) && defined(__x86_64__)

#include <nmmintrin.h>

#include <cstring>

namespace pp::storage::detail {

std::uint32_t crc32c_sse42(const void* data, std::size_t n,
                           std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = ~seed;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

}  // namespace pp::storage::detail

#else  // !(__SSE4_2__ && __x86_64__)

#include <cstdlib>

namespace pp::storage::detail {

std::uint32_t crc32c_sse42(const void*, std::size_t, std::uint32_t) {
  std::abort();
}

}  // namespace pp::storage::detail

#endif
