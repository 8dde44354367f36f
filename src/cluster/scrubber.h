#ifndef LAKE_CLUSTER_SCRUBBER_H_
#define LAKE_CLUSTER_SCRUBBER_H_

#include <cstdint>
#include <mutex>

#include "cluster/cluster_engine.h"
#include "util/periodic_thread.h"

namespace lake::cluster {

/// Background anti-entropy thread (the cluster-layer sibling of
/// ingest::Compactor): runs ClusterEngine::ScrubOnce on a fixed cadence —
/// compare replica content digests per shard, drill down to per-table
/// digests on mismatch, repair divergent replicas from a majority-agreeing
/// peer, re-admit them. One scrubber per cluster; the steady-state pass is
/// R atomic digest loads per shard, so the cadence can be aggressive. Its
/// loop is a util PeriodicThread.
class Scrubber {
 public:
  struct Options {
    /// Pass cadence.
    uint64_t poll_interval_ms = 100;
  };

  /// `cluster` must outlive the scrubber.
  Scrubber(ClusterEngine* cluster, Options options);
  explicit Scrubber(ClusterEngine* cluster) : Scrubber(cluster, Options{}) {}

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// Requests an immediate pass and wakes the thread; returns without
  /// waiting for it to finish.
  void TriggerNow() { thread_.TriggerNow(); }

  /// Triggers a pass that STARTS after this call (an in-flight pass may
  /// have missed just-injected divergence), blocks until it completes,
  /// and returns its report. Deterministic convergence wait for tests
  /// and benches.
  ClusterEngine::ScrubReport RunPassAndWait();

  /// Stops the thread (idempotent; also run by the destructor). An
  /// in-progress pass finishes first.
  void Stop() { thread_.Stop(); }

  uint64_t passes() const { return thread_.passes(); }
  ClusterEngine::ScrubReport last_report() const;

 private:
  ClusterEngine* cluster_;

  mutable std::mutex mu_;  // guards last_report_
  ClusterEngine::ScrubReport last_report_;

  PeriodicThread thread_;  // last: stops before the state it touches dies
};

}  // namespace lake::cluster

#endif  // LAKE_CLUSTER_SCRUBBER_H_
