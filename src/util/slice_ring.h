#ifndef LAKE_UTIL_SLICE_RING_H_
#define LAKE_UTIL_SLICE_RING_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lake {

/// Rolling time window: a ring of `slices` time slices, each `width` wide.
/// Every slot is tagged with the tick (slice index since the clock's
/// epoch) whose counts it holds, so the window rolls without a timer:
/// Current() reclaims a slot whose tag is older than `now`'s tick, and live
/// iteration skips slots whose tick has left the window, so a gap longer
/// than the whole window finds every slot stale.
///
/// The one time-slice window of the resilience layer: CircuitBreaker
/// (outcome counts), cluster::RetryBudget (volume and spend) and
/// WindowedQuantile (latency histograms) each hold only their Slot type
/// on it. Not synchronized: the owner guards it with its own mutex, as it
/// would a container.
template <typename Slot>
class SliceRing {
 public:
  using Clock = std::chrono::steady_clock;

  /// `slices` clamps to at least 1 and `width` to at least 1ms.
  SliceRing(size_t slices, std::chrono::milliseconds width)
      : width_(std::max(width, std::chrono::milliseconds(1))),
        entries_(std::max<size_t>(1, slices)) {}

  /// The slot of the slice containing `now`; zeroed first when it holds
  /// another slice.
  Slot& Current(Clock::time_point now) {
    const uint64_t tick = TickOf(now);
    Entry& entry = entries_[tick % entries_.size()];
    if (entry.tick != tick) entry = Entry{tick, Slot{}};
    return entry.slot;
  }

  /// Calls `fn(const Slot&)` for every slot inside the window that ends
  /// with the slice containing `now` (the last `slices` ticks).
  template <typename Fn>
  void ForEachLive(Clock::time_point now, Fn&& fn) const {
    const uint64_t tick = TickOf(now);
    for (const Entry& entry : entries_) {
      if (LiveAt(entry.tick, tick)) fn(entry.slot);
    }
  }

  /// Empties the window.
  void Reset() {
    for (Entry& entry : entries_) entry = Entry{};
  }

 private:
  static constexpr uint64_t kEmpty = UINT64_MAX;

  struct Entry {
    uint64_t tick = kEmpty;
    Slot slot{};
  };

  uint64_t TickOf(Clock::time_point now) const {
    return static_cast<uint64_t>(now.time_since_epoch() / width_);
  }

  bool LiveAt(uint64_t entry_tick, uint64_t tick) const {
    return entry_tick != kEmpty && entry_tick <= tick &&
           entry_tick + entries_.size() > tick;
  }

  std::chrono::milliseconds width_;
  std::vector<Entry> entries_;
};

}  // namespace lake

#endif  // LAKE_UTIL_SLICE_RING_H_
