#include "util/windowed_quantile.h"

#include <algorithm>

#include "util/log_buckets.h"

namespace lake {

WindowedQuantile::WindowedQuantile() : WindowedQuantile(Options()) {}

WindowedQuantile::WindowedQuantile(Options options) : options_(options) {
  options_.window_slices = std::max<size_t>(1, options_.window_slices);
  if (options_.slice_width.count() <= 0) {
    options_.slice_width = std::chrono::milliseconds(1);
  }
  slices_.resize(options_.window_slices);
}

uint64_t WindowedQuantile::TickOf(Clock::time_point now) const {
  const auto since_epoch = now.time_since_epoch();
  return static_cast<uint64_t>(since_epoch / options_.slice_width);
}

bool WindowedQuantile::LiveAt(const Slice& slice, uint64_t tick) const {
  return slice.tick != UINT64_MAX && slice.tick <= tick &&
         slice.tick + options_.window_slices > tick;
}

void WindowedQuantile::Record(double micros, Clock::time_point now) {
  const uint64_t clamped = micros <= 0 ? 0 : static_cast<uint64_t>(micros);
  const uint64_t tick = TickOf(now);
  std::lock_guard<std::mutex> lock(mu_);
  Slice& slice = slices_[tick % slices_.size()];
  if (slice.tick != tick) slice = Slice{tick, 0, {}};
  ++slice.buckets[std::min(LogBucketIndex(clamped), kValueBuckets - 1)];
  ++slice.total;
}

double WindowedQuantile::Quantile(double q, Clock::time_point now) const {
  const uint64_t tick = TickOf(now);
  std::array<uint64_t, kValueBuckets> merged{};
  std::lock_guard<std::mutex> lock(mu_);
  for (const Slice& slice : slices_) {
    if (!LiveAt(slice, tick)) continue;
    for (size_t b = 0; b < kValueBuckets; ++b) merged[b] += slice.buckets[b];
  }
  return LogBucketQuantile(merged, q);
}

uint64_t WindowedQuantile::count(Clock::time_point now) const {
  const uint64_t tick = TickOf(now);
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const Slice& slice : slices_) {
    if (LiveAt(slice, tick)) total += slice.total;
  }
  return total;
}

void WindowedQuantile::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slice& slice : slices_) slice = Slice{};
}

}  // namespace lake
