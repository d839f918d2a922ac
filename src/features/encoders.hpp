// Stateless feature encoders (§5.2): one-hot, hashed categoricals, time of
// day / day of week, and the log-bucket transform T(t) shared by the
// baselines' elapsed-time features and the RNN's time-delta inputs (§6.1).
#pragma once

#include <cstdint>
#include <span>

#include "data/dataset.hpp"

namespace pp::features {

/// The paper hashes high-cardinality names and takes the remainder modulo
/// a prime (97). 64-bit FNV-1a stands in for the production string hash.
std::uint32_t hash_mod(std::uint64_t raw_value, std::uint32_t modulus = 97);

/// Writes a one-hot encoding of `value` into out[0, cardinality). Values
/// beyond the cardinality are clamped to the last slot (defensive: raw
/// logs can exceed the declared range).
void one_hot(std::uint32_t value, std::uint32_t cardinality,
             std::span<float> out);

/// T(t) = floor(50/15 * ln(t)) clamped to [0, num_buckets); t <= 1 maps to
/// bucket 0. The paper picks 50/15 because the largest delta of interest
/// (30 days) is about e^14.76 seconds, filling ~50 buckets.
class LogBucketizer {
 public:
  explicit LogBucketizer(int num_buckets = 50, double scale = 50.0 / 15.0)
      : num_buckets_(num_buckets), scale_(scale) {}

  int bucket(std::int64_t seconds) const;
  int num_buckets() const { return num_buckets_; }
  /// One-hot of bucket(seconds) into out[0, num_buckets).
  void encode(std::int64_t seconds, std::span<float> out) const;

 private:
  int num_buckets_;
  double scale_;
};

/// Hour-of-day (24) followed by day-of-week (7) one-hots; 31 floats.
inline constexpr std::size_t kTimeOfDayWidth = 24 + 7;
void encode_time_of_day(std::int64_t timestamp, std::span<float> out);

/// One-hot encodes every context field back to back.
void encode_context(const data::ContextSchema& schema,
                    std::span<const std::uint32_t> context,
                    std::span<float> out);

}  // namespace pp::features
