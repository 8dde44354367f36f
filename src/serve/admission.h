#ifndef LAKE_SERVE_ADMISSION_H_
#define LAKE_SERVE_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>

namespace lake::serve {

/// Scheduling class of a query. Shedding is ordered: batch traffic is
/// refused (and CoDel-dropped) before any interactive query is touched, so
/// background crawls cannot starve users.
enum class Priority {
  kInteractive = 0,
  kBatch = 1,
};

/// Adaptive concurrency limiter for the serving executor: an AIMD loop
/// driven by observed completion latency replaces a fixed max-pending
/// bound, and a CoDel-style controller sheds on queue *sojourn time*
/// rather than queue length, so the service tracks whatever concurrency
/// the hardware currently sustains instead of a guess made at deploy time.
///
/// Three cooperating rules:
///  - Admission (TryAdmit): lock-free check of in-flight count against the
///    live limit; batch queries are additionally capped at a fraction of
///    the limit so shedding hits them first.
///  - AIMD (OnCompletion): a completion under the latency target grows the
///    limit by ~1/limit (one slot per limit's worth of good completions);
///    a congested completion (over target, deadline-exceeded, or a CoDel
///    drop) multiplies the limit by `decrease_factor`, at most once per
///    cooldown so one burst of stragglers does not collapse it.
///  - CoDel (ShouldDrop): called at dequeue with the query's sojourn time.
///    Sojourn persistently above `codel_target` for a full
///    `codel_interval` enters a dropping state that sheds with the
///    sqrt-control-law cadence (and sheds every batch query) until
///    sojourn falls back under the target.
///
/// All decision methods take an explicit `now` so tests drive the state
/// machine deterministically with synthetic clocks.
class AdmissionController {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    /// Starting concurrency limit; 0 means "start at max_limit" (the
    /// serving layer clamps max_limit to its hard max-pending bound, so
    /// the limit is that bound until congestion is actually observed).
    size_t initial_limit = 0;
    size_t min_limit = 4;
    size_t max_limit = 4096;
    /// AIMD latency target in milliseconds; completions above it shrink
    /// the limit. 0 disables the latency signal (deadline misses and
    /// CoDel drops remain congestion signals).
    double latency_target_ms = 0;
    double decrease_factor = 0.7;
    /// At most one multiplicative decrease per cooldown window.
    std::chrono::milliseconds decrease_cooldown{100};
    /// Fraction of the live limit batch queries may occupy.
    double batch_headroom = 0.5;
    /// CoDel sojourn target; 0 disables dequeue-time shedding.
    std::chrono::milliseconds codel_target{0};
    /// Sojourn must stay above target this long before dropping starts.
    std::chrono::milliseconds codel_interval{100};
  };

  enum class Decision {
    kAdmit,
    kShedLimit,  // in-flight at the adaptive limit
    kShedBatch,  // batch headroom exhausted (interactive still admitted)
  };

  explicit AdmissionController(Options options);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Reserves an in-flight slot or refuses; lock-free. Every kAdmit must
  /// eventually be paired with Release().
  Decision TryAdmit(Priority priority);
  void Release();

  /// CoDel check at dequeue: true means shed this query now (the caller
  /// fails it with kOverloaded and must still call Release + OnCompletion
  /// with congested=true).
  bool ShouldDrop(Priority priority, std::chrono::nanoseconds sojourn,
                  Clock::time_point now);

  /// True while CoDel is in its dropping state. The serving layer uses
  /// this as a door policy: while dropping (and the queue is non-empty,
  /// so a low-sojourn dequeue can still clear the state), new arrivals
  /// are refused at submit — the client learns its fate immediately
  /// instead of after a queue sojourn it was going to lose anyway.
  bool dropping() const {
    return dropping_snapshot_.load(std::memory_order_relaxed);
  }

  /// AIMD feedback for one finished query. `latency_ms` is admission to
  /// completion; `congested` forces the decrease path regardless of
  /// latency (deadline exceeded, CoDel drop).
  void OnCompletion(double latency_ms, bool congested, Clock::time_point now);

  /// Live concurrency limit / in-flight count (lock-free reads).
  size_t limit() const { return limit_snapshot_.load(std::memory_order_relaxed); }
  size_t in_flight() const { return in_flight_.load(std::memory_order_relaxed); }

  const Options& options() const { return options_; }

 private:
  Options options_;

  // Lock-free admission state.
  std::atomic<size_t> limit_snapshot_;
  std::atomic<size_t> in_flight_{0};
  std::atomic<bool> dropping_snapshot_{false};

  // AIMD + CoDel state (feedback path only; one short lock per completion).
  std::mutex mu_;
  double limit_;
  Clock::time_point last_decrease_{};
  bool dropping_ = false;
  Clock::time_point first_above_{};  // epoch value means "not set"
  Clock::time_point drop_next_{};
  uint64_t drop_count_ = 0;
};

}  // namespace lake::serve

#endif  // LAKE_SERVE_ADMISSION_H_
