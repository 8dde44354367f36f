#ifndef LAKE_UTIL_WINDOWED_QUANTILE_H_
#define LAKE_UTIL_WINDOWED_QUANTILE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "util/slice_ring.h"

namespace lake {

/// Decayed latency-quantile estimator: samples land in a ring of
/// time-sliced log-scale histograms, and quantiles are computed only over
/// the slices still inside the window, so a replica that was slow a
/// minute ago but recovered stops *looking* slow as its old slices roll
/// off. Values use the quarter-octave buckets of util/log_buckets.h:
/// relative quantile error is bounded at ~12.5%, plenty for "is this
/// replica 3x slower than its peers" decisions without per-sample
/// allocation.
///
/// Thread-safe; all methods take the caller's `now` so tests and the
/// chaos harness control time through the same clock they already use.
class WindowedQuantile {
 public:
  using Clock = std::chrono::steady_clock;

  /// The first 128 log buckets cover ~2.3 hours in microseconds; larger
  /// samples clamp into the last one.
  static constexpr size_t kValueBuckets = 128;

  struct Options {
    /// Number of time slices in the ring; the window covers
    /// `window_slices * slice_width`.
    size_t window_slices = 8;
    /// Width of one time slice.
    std::chrono::milliseconds slice_width{500};
  };

  WindowedQuantile();  // default Options
  explicit WindowedQuantile(Options options);

  /// Folds one sample (microseconds) into the slice containing `now`.
  void Record(double micros, Clock::time_point now);

  /// q-quantile (in microseconds, q clamped to [0, 1]) over the samples
  /// still inside the window; 0 when the window is empty.
  double Quantile(double q, Clock::time_point now) const;

  /// Samples still inside the window.
  uint64_t count(Clock::time_point now) const;

  /// Drops all samples (used when a slow-ejected replica's probe period
  /// begins, so the re-admit verdict judges only probe-era samples).
  void Reset();

 private:
  struct Slice {
    uint64_t total = 0;
    std::array<uint32_t, kValueBuckets> buckets{};
  };

  mutable std::mutex mu_;
  SliceRing<Slice> ring_;
};

}  // namespace lake

#endif  // LAKE_UTIL_WINDOWED_QUANTILE_H_
