#include "features/encoders.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pp::features {

std::uint32_t hash_mod(std::uint64_t raw_value, std::uint32_t modulus) {
  // FNV-1a over the 8 bytes of the value.
  std::uint64_t h = 14695981039346656037ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (raw_value >> (i * 8)) & 0xffu;
    h *= 1099511628211ull;
  }
  return static_cast<std::uint32_t>(h % modulus);
}

void one_hot(std::uint32_t value, std::uint32_t cardinality,
             std::span<float> out) {
  if (out.size() < cardinality) {
    throw std::invalid_argument("one_hot: output span too small");
  }
  std::fill(out.begin(), out.begin() + cardinality, 0.0f);
  out[std::min(value, cardinality - 1)] = 1.0f;
}

int LogBucketizer::bucket(std::int64_t seconds) const {
  if (seconds <= 1) return 0;
  const int b = static_cast<int>(
      std::floor(scale_ * std::log(static_cast<double>(seconds))));
  return std::clamp(b, 0, num_buckets_ - 1);
}

void LogBucketizer::encode(std::int64_t seconds, std::span<float> out) const {
  if (out.size() < static_cast<std::size_t>(num_buckets_)) {
    throw std::invalid_argument("LogBucketizer::encode: span too small");
  }
  std::fill(out.begin(), out.begin() + num_buckets_, 0.0f);
  out[static_cast<std::size_t>(bucket(seconds))] = 1.0f;
}

void encode_time_of_day(std::int64_t timestamp, std::span<float> out) {
  if (out.size() < kTimeOfDayWidth) {
    throw std::invalid_argument("encode_time_of_day: span too small");
  }
  std::fill(out.begin(), out.begin() + kTimeOfDayWidth, 0.0f);
  out[static_cast<std::size_t>(data::hour_of_day(timestamp))] = 1.0f;
  out[24 + static_cast<std::size_t>(data::day_of_week(timestamp))] = 1.0f;
}

void encode_context(const data::ContextSchema& schema,
                    std::span<const std::uint32_t> context,
                    std::span<float> out) {
  std::size_t offset = 0;
  for (std::size_t f = 0; f < schema.size(); ++f) {
    const auto card = schema.fields[f].cardinality;
    std::uint32_t value = context[f];
    if (schema.fields[f].hashed) value = hash_mod(value, card);
    one_hot(value, card, out.subspan(offset, card));
    offset += card;
  }
}

}  // namespace pp::features
