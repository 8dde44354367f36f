#include "cluster/retry_budget.h"

#include <algorithm>

namespace lake::cluster {

RetryBudget::RetryBudget(Options options)
    : ratio_(std::max(0.0, options.ratio)),
      min_tokens_(options.min_tokens),
      ring_(options.window_slices, options.slice_width) {}

void RetryBudget::RecordRequest(Clock::time_point now) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++ring_.Current(now).requests;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
}

bool RetryBudget::TryAcquire(Clock::time_point now) {
  bool granted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t volume = 0, extras = 0;
    ring_.ForEachLive(now, [&](const Slice& slice) {
      volume += slice.requests;
      extras += slice.extras;
    });
    const double cap = ratio_ * static_cast<double>(volume) +
                       static_cast<double>(min_tokens_);
    if (static_cast<double>(extras + 1) <= cap) {
      ++ring_.Current(now).extras;
      granted = true;
    }
  }
  if (granted) {
    acquired_.fetch_add(1, std::memory_order_relaxed);
  } else {
    denied_.fetch_add(1, std::memory_order_relaxed);
  }
  return granted;
}

}  // namespace lake::cluster
