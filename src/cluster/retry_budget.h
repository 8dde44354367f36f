#ifndef LAKE_CLUSTER_RETRY_BUDGET_H_
#define LAKE_CLUSTER_RETRY_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "util/slice_ring.h"

namespace lake::cluster {

/// Global retry/hedge budget for a cluster engine: hedged reads and
/// failover retries together draw from one pool sized as a fraction of
/// the recent *primary* sub-query volume (gRPC/SRE-style ratio budget),
/// so a sick cluster cannot melt itself by amplifying every slow or
/// failing request into duplicated work — the classic metastable-failure
/// trigger. Volume and spend are tracked over a rolling time window; a
/// small burst floor keeps failover alive on a cold or low-traffic
/// cluster. Budget-exhausted requests simply skip the extra attempt and
/// degrade exactly as an exhausted failover loop does today.
class RetryBudget {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    /// Extra attempts (hedges + retries) allowed per primary sub-query
    /// in the window.
    double ratio = 0.1;
    /// Burst floor: this many extra attempts are always allowed per
    /// window regardless of volume.
    uint64_t min_tokens = 10;
    /// Rolling window = `window_slices * slice_width`.
    size_t window_slices = 8;
    std::chrono::milliseconds slice_width{1000};
  };

  explicit RetryBudget(Options options);

  /// Accounts one primary (non-duplicated) sub-query dispatch.
  void RecordRequest(Clock::time_point now);

  /// Tries to reserve one extra attempt (hedge or failover retry).
  /// Returns false — caller must skip the duplicate work — when the
  /// window's extra attempts would exceed ratio * volume + min_tokens.
  bool TryAcquire(Clock::time_point now);

  /// Lifetime counters (cheap, for health/metrics/tests).
  uint64_t requests() const { return requests_.load(std::memory_order_relaxed); }
  uint64_t acquired() const { return acquired_.load(std::memory_order_relaxed); }
  uint64_t denied() const { return denied_.load(std::memory_order_relaxed); }

 private:
  struct Slice {
    uint64_t requests = 0;
    uint64_t extras = 0;
  };

  double ratio_;
  uint64_t min_tokens_;
  std::mutex mu_;
  SliceRing<Slice> ring_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> acquired_{0};
  std::atomic<uint64_t> denied_{0};
};

}  // namespace lake::cluster

#endif  // LAKE_CLUSTER_RETRY_BUDGET_H_
