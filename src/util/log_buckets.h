#ifndef LAKE_UTIL_LOG_BUCKETS_H_
#define LAKE_UTIL_LOG_BUCKETS_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace lake {

/// Quarter-octave log-scale value buckets (HdrHistogram-style, 2
/// sub-bucket bits), the one bucketing behind every latency histogram in
/// the tree: values 0..7 get exact buckets, then each power of two splits
/// into four equal sub-buckets. A bucket is at most 1/4 as wide as its
/// lower bound, so a quantile read back from bucket counts is within
/// ~12.5% of the true value. Histograms keep a prefix of the buckets and
/// clamp larger values into their last one.

/// Buckets needed to hold any uint64 value.
inline constexpr size_t kLogBuckets = 252;

/// Bucket of `value`, below kLogBuckets.
size_t LogBucketIndex(uint64_t value);

/// Inclusive lower bound of bucket `index` (< kLogBuckets); the bucket
/// ends where bucket `index + 1` begins.
uint64_t LogBucketLowerBound(size_t index);

/// q-quantile of a histogram whose bucket `i` counts the values that
/// LogBucketIndex maps to `i`: finds the bucket holding rank q * total
/// and interpolates linearly inside it. q is clamped to [0, 1]; returns 0
/// when every count is zero.
double LogBucketQuantile(std::span<const uint64_t> counts, double q);

}  // namespace lake

#endif  // LAKE_UTIL_LOG_BUCKETS_H_
