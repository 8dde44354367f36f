#include "serve/circuit_breaker.h"

#include <algorithm>
#include <chrono>

#include "util/backoff.h"

namespace lake::serve {

CircuitBreaker::CircuitBreaker(Options options)
    : options_(options),
      window_(options.window_buckets, options.bucket_width) {
  options_.half_open_max_probes =
      std::max<size_t>(1, options_.half_open_max_probes);
  options_.close_after_successes =
      std::max<size_t>(1, options_.close_after_successes);
}

double CircuitBreaker::FailureRateLocked(Clock::time_point now) const {
  uint64_t successes = 0, failures = 0;
  window_.ForEachLive(now, [&](const Bucket& b) {
    successes += b.successes;
    failures += b.failures;
  });
  const uint64_t total = successes + failures;
  if (total < options_.min_volume) return 0;
  return static_cast<double>(failures) / static_cast<double>(total);
}

void CircuitBreaker::TripLocked(Clock::time_point now) {
  state_ = State::kOpen;
  ++trips_;
  const auto base =
      std::chrono::duration_cast<std::chrono::nanoseconds>(options_.open_base);
  const auto max =
      std::chrono::duration_cast<std::chrono::nanoseconds>(options_.open_max);
  reopen_at_ = now + std::chrono::nanoseconds(BackoffDelay(
                         static_cast<uint64_t>(base.count()),
                         static_cast<uint64_t>(max.count()),
                         consecutive_opens_ + 1));
  ++consecutive_opens_;
  probes_in_flight_ = 0;
  probe_successes_ = 0;
  window_.Reset();
}

CircuitBreaker::Permit CircuitBreaker::Allow(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kOpen) {
    if (now < reopen_at_) return Permit::kDenied;
    state_ = State::kHalfOpen;
    probes_in_flight_ = 0;
    probe_successes_ = 0;
  }
  if (state_ == State::kHalfOpen) {
    if (probes_in_flight_ >= options_.half_open_max_probes) {
      return Permit::kDenied;
    }
    ++probes_in_flight_;
    return Permit::kProbe;
  }
  return Permit::kAllowed;
}

void CircuitBreaker::RecordSuccess(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kHalfOpen:
      if (probes_in_flight_ > 0) --probes_in_flight_;
      if (++probe_successes_ >= options_.close_after_successes) {
        state_ = State::kClosed;
        consecutive_opens_ = 0;
        window_.Reset();
      }
      return;
    case State::kClosed:
      ++window_.Current(now).successes;
      return;
    case State::kOpen:
      return;  // straggler admitted before the trip: window was reset
  }
}

void CircuitBreaker::RecordFailure(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kHalfOpen:
      // One failed probe reopens with a longer backoff.
      TripLocked(now);
      return;
    case State::kClosed:
      ++window_.Current(now).failures;
      if (FailureRateLocked(now) >= options_.failure_threshold) {
        TripLocked(now);
      }
      return;
    case State::kOpen:
      return;
  }
}

void CircuitBreaker::RecordNeutral(Clock::time_point now) {
  (void)now;
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen && probes_in_flight_ > 0) {
    --probes_in_flight_;
  }
}

void CircuitBreaker::Trip(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  TripLocked(now);
}

CircuitBreaker::State CircuitBreaker::state(Clock::time_point now) const {
  (void)now;
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

size_t CircuitBreaker::probe_successes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return probe_successes_;
}

double CircuitBreaker::failure_rate(Clock::time_point now) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FailureRateLocked(now);
}

uint64_t CircuitBreaker::trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trips_;
}

const char* CircuitBreaker::StateName(State s) {
  switch (s) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

bool CircuitBreaker::IsFailure(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kInternal:
    case StatusCode::kIoError:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

CircuitBreaker* BreakerSet::Get(const std::string& modality) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakers_.find(modality);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(modality, std::make_unique<CircuitBreaker>(options_))
             .first;
  }
  return it->second.get();
}

std::vector<std::pair<std::string, CircuitBreaker*>> BreakerSet::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, CircuitBreaker*>> out;
  out.reserve(breakers_.size());
  for (const auto& [name, breaker] : breakers_) {
    out.emplace_back(name, breaker.get());
  }
  return out;
}

}  // namespace lake::serve
