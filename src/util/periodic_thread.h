#ifndef LAKE_UTIL_PERIODIC_THREAD_H_
#define LAKE_UTIL_PERIODIC_THREAD_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace lake {

/// One background thread that runs a pass every `interval`, or at once
/// when triggered: the loop behind ingest::Compactor, cluster::Scrubber and
/// the chaos harness's compaction thread. The pass runs on the thread,
/// outside the loop's lock, one at a time.
class PeriodicThread {
 public:
  /// Starts the thread. `pass(triggered)` is told whether TriggerNow or
  /// RunPassAndWait woke it rather than the interval.
  PeriodicThread(std::chrono::milliseconds interval,
                 std::function<void(bool triggered)> pass);
  ~PeriodicThread() { Stop(); }

  PeriodicThread(const PeriodicThread&) = delete;
  PeriodicThread& operator=(const PeriodicThread&) = delete;

  /// Requests an immediate pass and wakes the thread; returns without
  /// waiting for it.
  void TriggerNow();

  /// Triggers a pass that STARTS after this call (a pass already running
  /// may have missed what the caller just did) and blocks until it
  /// completes, or until Stop.
  void RunPassAndWait();

  /// Stops the thread (idempotent). A pass in progress finishes first.
  void Stop();

  /// Completed passes.
  uint64_t passes() const;

 private:
  void Loop();

  const std::chrono::milliseconds interval_;
  const std::function<void(bool)> pass_;

  mutable std::mutex mu_;
  std::condition_variable wake_cv_;  // trigger or stop, to the loop
  std::condition_variable done_cv_;  // pass completion, to waiters
  bool stop_ = false;
  bool trigger_ = false;
  bool running_ = false;  // a pass is executing outside the lock
  uint64_t passes_ = 0;

  std::thread thread_;  // last: starts after the state it reads
};

}  // namespace lake

#endif  // LAKE_UTIL_PERIODIC_THREAD_H_
