#ifndef LAKE_INGEST_COMPACTOR_H_
#define LAKE_INGEST_COMPACTOR_H_

#include <chrono>
#include <cstdint>
#include <mutex>

#include "ingest/live_engine.h"
#include "util/backoff.h"
#include "util/periodic_thread.h"

namespace lake::ingest {

/// Background compaction policy thread: watches the engine's delta size
/// and tombstone ratio and folds the delta into a fresh base when either
/// threshold trips (LiveEngine::Compact — the heavy build runs off the
/// serving path; queries and ingestion continue against the old
/// generation until the atomic swap). One compactor per engine; its loop
/// is a util PeriodicThread.
class Compactor {
 public:
  struct Options {
    /// Compact when the delta holds at least this many tables.
    size_t max_delta_tables = 64;
    /// ...or when tombstones exceed this fraction of the base.
    double max_tombstone_ratio = 0.2;
    /// Threshold poll cadence.
    uint64_t poll_interval_ms = 50;
    /// First retry delay after a failed compaction (e.g. ENOSPC during the
    /// build). Doubles per consecutive failure up to `backoff_max_ms`, and
    /// resets on the first success. The current generation keeps serving
    /// the whole time — a failed build never publishes anything.
    uint64_t backoff_initial_ms = 100;
    /// Retry delay ceiling.
    uint64_t backoff_max_ms = 5000;
  };

  /// `engine` must outlive the compactor.
  Compactor(LiveEngine* engine, Options options);
  explicit Compactor(LiveEngine* engine) : Compactor(engine, Options{}) {}

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// Requests an immediate compaction regardless of thresholds and wakes
  /// the thread; returns without waiting for it to finish.
  void TriggerNow() { thread_.TriggerNow(); }

  /// Stops the thread (idempotent; also run by the destructor). An
  /// in-progress compaction finishes first.
  void Stop() { thread_.Stop(); }

  uint64_t runs() const;
  uint64_t failures() const;
  LiveEngine::CompactionStats last_stats() const;
  /// Current retry delay; 0 when the last attempt succeeded (no backoff).
  uint64_t backoff_ms() const;

 private:
  /// One policy pass; `forced` (TriggerNow) skips the thresholds and the
  /// backoff gate.
  void Pass(bool forced);

  LiveEngine* engine_;
  Options options_;

  mutable std::mutex mu_;  // guards the stats and backoff state below
  uint64_t runs_ = 0;
  uint64_t failures_ = 0;
  LiveEngine::CompactionStats last_stats_;
  Backoff backoff_;          // shared capped-exponential retry schedule
  uint64_t backoff_ms_ = 0;  // 0 = healthy, else current retry delay
  std::chrono::steady_clock::time_point next_attempt_{};  // gate while backing off

  PeriodicThread thread_;  // last: stops before the state it touches dies
};

}  // namespace lake::ingest

#endif  // LAKE_INGEST_COMPACTOR_H_
