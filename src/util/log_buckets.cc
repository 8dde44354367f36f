#include "util/log_buckets.h"

#include <algorithm>
#include <bit>

namespace lake {

namespace {
constexpr int kSubBits = 2;  // 4 sub-buckets per power of two
constexpr uint64_t kSubCount = uint64_t{1} << kSubBits;
constexpr uint64_t kExact = 2 * kSubCount;  // 0..7 are their own buckets
}  // namespace

size_t LogBucketIndex(uint64_t value) {
  if (value < kExact) return static_cast<size_t>(value);
  const int msb = 63 - std::countl_zero(value);  // >= 3
  const uint64_t sub = (value >> (msb - kSubBits)) & (kSubCount - 1);
  return static_cast<size_t>(msb - 1) * kSubCount + static_cast<size_t>(sub);
}

uint64_t LogBucketLowerBound(size_t index) {
  if (index < kExact) return index;
  const int msb = static_cast<int>(index / kSubCount) + 1;
  const uint64_t sub = index & (kSubCount - 1);
  return (kSubCount + sub) << (msb - kSubBits);
}

double LogBucketQuantile(std::span<const uint64_t> counts, double q) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  uint64_t cum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const uint64_t next = cum + counts[i];
    if (static_cast<double>(next) >= target) {
      const double lo = static_cast<double>(LogBucketLowerBound(i));
      // The last bucket of the uint64 range ends at 2^64.
      const double hi = i + 1 < kLogBuckets
                            ? static_cast<double>(LogBucketLowerBound(i + 1))
                            : 0x1p64;
      return lo + (hi - lo) * (target - static_cast<double>(cum)) /
                      static_cast<double>(counts[i]);
    }
    cum = next;
  }
  return 0;  // unreachable: target <= total
}

}  // namespace lake
