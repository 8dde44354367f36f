#ifndef LAKE_CHAOS_INVARIANTS_H_
#define LAKE_CHAOS_INVARIANTS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "chaos/oracle.h"
#include "cluster/cluster_engine.h"
#include "util/periodic_thread.h"

namespace lake::chaos {

/// INVARIANT CATALOG — what a chaos run must uphold at quiesce (after
/// faults are cleared, dead replicas revived, and the scrubber has run to
/// convergence). Each checker returns human-readable violations; empty
/// means the invariant holds.

/// I1 — zero acknowledged loss / no phantoms / content integrity:
/// every table the cluster acknowledged is present with acked content,
/// every acked remove stays removed, nothing appears that was never
/// ingested. Owned by WAL + snapshots + quorum writes + rebalance.
std::vector<std::string> CheckZeroLoss(
    const WorkloadOracle& oracle,
    const std::map<std::string, uint32_t>& lake_digests);

/// I2 — replica convergence: after anti-entropy, every shard's replicas
/// are alive, non-stale, and digest-identical. Owned by the scrubber and
/// ReplicaSet quorum bookkeeping.
std::vector<std::string> CheckConvergence(
    const std::vector<cluster::ClusterEngine::ShardHealth>& health);

/// I3 — snapshot generation monotonicity: per snapshot directory, the
/// highest committed generation never decreases across the run, crashes
/// included. Owned by SnapshotStore (MANIFEST commit point).
/// `previous` is the caller's running max per directory; it is updated in
/// place and violations are reported for any regression.
std::vector<std::string> CheckSnapshotMonotonicity(
    const std::string& store_root,
    std::map<std::string, uint64_t>* previous);

/// Converts a hang into a failure: if Disarm() is not called within
/// `budget_ms` of construction, prints `context` to stderr and aborts the
/// process (a deadlocked chaos run must fail loudly, not time out a CI
/// job 6 hours later). I4 — liveness. The countdown is a PeriodicThread
/// whose first interval is the budget: its first pass aborts.
class Watchdog {
 public:
  Watchdog(uint64_t budget_ms, std::string context);

  /// Replaces the stderr context printed on expiry (cheap; called per-op
  /// so the abort message names the operation that hung).
  void SetContext(std::string context);

  /// Stops the countdown (idempotent; also run by the destructor).
  void Disarm() { thread_.Stop(); }

 private:
  std::mutex mu_;  // guards context_
  std::string context_;
  PeriodicThread thread_;  // last: stops before context_ dies
};

}  // namespace lake::chaos

#endif  // LAKE_CHAOS_INVARIANTS_H_
