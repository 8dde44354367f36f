#include "util/windowed_quantile.h"

#include <algorithm>

#include "util/log_buckets.h"

namespace lake {

WindowedQuantile::WindowedQuantile() : WindowedQuantile(Options()) {}

WindowedQuantile::WindowedQuantile(Options options)
    : ring_(options.window_slices, options.slice_width) {}

void WindowedQuantile::Record(double micros, Clock::time_point now) {
  const uint64_t clamped = micros <= 0 ? 0 : static_cast<uint64_t>(micros);
  std::lock_guard<std::mutex> lock(mu_);
  Slice& slice = ring_.Current(now);
  ++slice.buckets[std::min(LogBucketIndex(clamped), kValueBuckets - 1)];
  ++slice.total;
}

double WindowedQuantile::Quantile(double q, Clock::time_point now) const {
  std::array<uint64_t, kValueBuckets> merged{};
  std::lock_guard<std::mutex> lock(mu_);
  ring_.ForEachLive(now, [&](const Slice& slice) {
    for (size_t b = 0; b < kValueBuckets; ++b) merged[b] += slice.buckets[b];
  });
  return LogBucketQuantile(merged, q);
}

uint64_t WindowedQuantile::count(Clock::time_point now) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  ring_.ForEachLive(now, [&](const Slice& slice) { total += slice.total; });
  return total;
}

void WindowedQuantile::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.Reset();
}

}  // namespace lake
