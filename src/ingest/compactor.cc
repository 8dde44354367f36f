#include "ingest/compactor.h"

#include <algorithm>
#include <chrono>

#include "util/logging.h"

namespace lake::ingest {

Compactor::Compactor(LiveEngine* engine, Options options)
    : engine_(engine),
      options_(options),
      backoff_(Backoff::Options{options.backoff_initial_ms,
                                options.backoff_max_ms, /*jitter=*/0}),
      thread_(std::chrono::milliseconds(options.poll_interval_ms),
              [this](bool forced) { Pass(forced); }) {}

uint64_t Compactor::runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_;
}

uint64_t Compactor::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

LiveEngine::CompactionStats Compactor::last_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_stats_;
}

uint64_t Compactor::backoff_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return backoff_ms_;
}

void Compactor::Pass(bool forced) {
  if (!forced) {
    {
      // Graceful degradation after a failed build (ENOSPC, injected
      // fault): the old generation keeps serving and retries are spaced
      // by capped exponential backoff instead of hammering a full disk
      // every poll tick. An explicit TriggerNow() bypasses the gate so
      // tests and operators can force a retry.
      std::lock_guard<std::mutex> lock(mu_);
      if (backoff_ms_ != 0 &&
          std::chrono::steady_clock::now() < next_attempt_) {
        return;
      }
    }
    if (!engine_->CompactionNeeded(options_.max_delta_tables,
                                   options_.max_tombstone_ratio)) {
      return;
    }
  }
  Result<LiveEngine::CompactionStats> stats = engine_->Compact();
  std::lock_guard<std::mutex> lock(mu_);
  if (stats.ok()) {
    ++runs_;
    last_stats_ = stats.value();
    backoff_.Reset();
    backoff_ms_ = 0;
  } else {
    ++failures_;
    backoff_ms_ = backoff_.NextDelayMs();
    next_attempt_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(backoff_ms_);
    LAKE_LOG(Warning) << "compaction failed (retry in " << backoff_ms_
                      << " ms): " << stats.status().ToString();
  }
}

}  // namespace lake::ingest
