#include "cluster/scrubber.h"

#include <chrono>

namespace lake::cluster {

Scrubber::Scrubber(ClusterEngine* cluster, Options options)
    : cluster_(cluster),
      thread_(std::chrono::milliseconds(options.poll_interval_ms),
              [this](bool /*triggered*/) {
                ClusterEngine::ScrubReport report = cluster_->ScrubOnce();
                std::lock_guard<std::mutex> lock(mu_);
                last_report_ = report;
              }) {}

ClusterEngine::ScrubReport Scrubber::last_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_report_;
}

ClusterEngine::ScrubReport Scrubber::RunPassAndWait() {
  thread_.RunPassAndWait();
  return last_report();
}

}  // namespace lake::cluster
