#ifndef LAKE_SERVE_CIRCUIT_BREAKER_H_
#define LAKE_SERVE_CIRCUIT_BREAKER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/slice_ring.h"
#include "util/status.h"

namespace lake::serve {

/// Rolling-window circuit breaker. A dependency whose error/timeout rate
/// over the recent window crosses the threshold *trips*: calls are refused
/// instantly instead of feeding more threads into a hung or unbuilt
/// dependency. After a capped exponential backoff the next Allow opens a
/// half-open probe period that admits a bounded number of probe calls;
/// enough probe successes close it, one probe failure reopens it with a
/// longer backoff.
///
/// Two users. serve::QueryService keeps one per query modality (one
/// (QueryKind, method) pair, through BreakerSet) and answers kUnavailable
/// or browns out to a cheaper method while it is open.
/// cluster::ReplicaSet keeps two per replica: one trips on failures like
/// the serving layer's, and one trips on latency, through Trip(), when
/// the replica is a slow outlier among its peers, so slow-replica ejection
/// runs on the same exclude -> backoff -> probe -> re-admit cycle.
///
/// Outcomes are accounted in `window_buckets` time buckets of
/// `bucket_width` each (a SliceRing), so old failures age out instead of
/// poisoning the rate forever. All methods take an explicit `now` for
/// deterministic tests; everything is guarded by one short mutex (a
/// handful of integer ops per query).
class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  enum class State { kClosed, kOpen, kHalfOpen };

  struct Options {
    size_t window_buckets = 8;
    std::chrono::milliseconds bucket_width{250};  // 2s rolling window
    /// Minimum outcomes in the window before the rate can trip.
    size_t min_volume = 8;
    /// Failure fraction at or above which the breaker trips.
    double failure_threshold = 0.5;
    /// Open backoff: open_base * 2^(consecutive reopens), capped.
    std::chrono::milliseconds open_base{250};
    std::chrono::milliseconds open_max{8000};
    /// Concurrent probes admitted while half-open.
    size_t half_open_max_probes = 1;
    /// Probe successes required to close from half-open.
    size_t close_after_successes = 2;
  };

  enum class Permit {
    kDenied,   // open (backoff running) or half-open probe slots taken
    kAllowed,  // closed: normal call, outcome feeds the rolling window
    kProbe,    // half-open probe slot granted: outcome MUST be recorded
  };

  explicit CircuitBreaker(Options options);

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// May a call proceed now? An open breaker whose backoff has elapsed
  /// moves to half-open here, and only here: this call starts the probe
  /// period.
  Permit Allow(Clock::time_point now);

  /// Outcome of an allowed call. Success/failure feed the window (closed)
  /// or the probe protocol (half-open); neutral (cancelled by the caller,
  /// says nothing about the dependency) only releases a probe slot.
  void RecordSuccess(Clock::time_point now);
  void RecordFailure(Clock::time_point now);
  void RecordNeutral(Clock::time_point now);

  /// Opens the breaker on the caller's own verdict, exactly as a failed
  /// rate check or a failed probe would (the backoff doubles per
  /// consecutive open). ReplicaSet's latency breaker trips only this way.
  void Trip(Clock::time_point now);

  /// Current state. A pure read: an open breaker stays open after its
  /// backoff until an Allow starts the probe period, so reading peers'
  /// health never advances them. `now` is accepted for symmetry with the
  /// other calls.
  State state(Clock::time_point now) const;

  /// Probe successes so far in the current half-open period.
  size_t probe_successes() const;

  /// Failure fraction over the live window (0 when below min_volume).
  double failure_rate(Clock::time_point now) const;

  /// Lifetime closed->open transitions (includes half-open reopens).
  uint64_t trips() const;

  static const char* StateName(State s);

  /// Should an outcome with this status count against a breaker?
  /// Timeouts, internal/I/O errors, an unbuilt index and an unavailable
  /// dependency all mean it cannot serve right now. Any other error
  /// (cancellation, the caller's own bad request) says nothing about it
  /// and is recorded neutrally. Both users share this taxonomy.
  static bool IsFailure(const Status& status);

 private:
  struct Bucket {
    uint64_t successes = 0;
    uint64_t failures = 0;
  };

  void TripLocked(Clock::time_point now);
  double FailureRateLocked(Clock::time_point now) const;

  Options options_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  SliceRing<Bucket> window_;

  Clock::time_point reopen_at_{};
  uint64_t consecutive_opens_ = 0;
  size_t probes_in_flight_ = 0;
  size_t probe_successes_ = 0;
  uint64_t trips_ = 0;
};

/// Lazily-populated set of breakers keyed by modality name (the serving
/// layer keys by "<kind>.<method>", e.g. "union.starmie"). Pointers are
/// stable for the set's lifetime, so hot paths resolve once per query.
class BreakerSet {
 public:
  explicit BreakerSet(CircuitBreaker::Options options)
      : options_(options) {}

  CircuitBreaker* Get(const std::string& modality);

  /// Name-sorted view for health/metrics export.
  std::vector<std::pair<std::string, CircuitBreaker*>> All() const;

 private:
  CircuitBreaker::Options options_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
};

}  // namespace lake::serve

#endif  // LAKE_SERVE_CIRCUIT_BREAKER_H_
