#include "util/periodic_thread.h"

#include <utility>

namespace lake {

PeriodicThread::PeriodicThread(std::chrono::milliseconds interval,
                               std::function<void(bool triggered)> pass)
    : interval_(interval), pass_(std::move(pass)) {
  thread_ = std::thread([this] { Loop(); });
}

void PeriodicThread::TriggerNow() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    trigger_ = true;
  }
  wake_cv_.notify_one();
}

void PeriodicThread::RunPassAndWait() {
  std::unique_lock<std::mutex> lock(mu_);
  // A pass executing right now started before this call; wait for one
  // more completion beyond it so the awaited pass began here.
  const uint64_t target = passes_ + (running_ ? 2 : 1);
  trigger_ = true;
  wake_cv_.notify_one();
  done_cv_.wait(lock, [&] { return passes_ >= target || stop_; });
}

void PeriodicThread::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  wake_cv_.notify_one();
  done_cv_.notify_all();
  thread_.join();
}

uint64_t PeriodicThread::passes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return passes_;
}

void PeriodicThread::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    wake_cv_.wait_for(lock, interval_, [this] { return stop_ || trigger_; });
    if (stop_) return;
    const bool triggered = trigger_;
    trigger_ = false;
    running_ = true;
    lock.unlock();
    pass_(triggered);
    lock.lock();
    running_ = false;
    ++passes_;
    done_cv_.notify_all();
  }
}

}  // namespace lake
