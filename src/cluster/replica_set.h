#ifndef LAKE_CLUSTER_REPLICA_SET_H_
#define LAKE_CLUSTER_REPLICA_SET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ingest/live_engine.h"
#include "serve/circuit_breaker.h"
#include "serve/metrics.h"
#include "util/windowed_quantile.h"

namespace lake::cluster {

/// R replicas of one shard: identical LiveEngines over the shard's slice
/// of the lake, each guarded by its own circuit breaker and a liveness
/// flag. The read path picks one healthy replica per query (round-robin
/// across queries) and fails over to a sibling when an attempt fails.
///
/// The write path is a quorum protocol, not blind fan-out: every replica
/// attempts the batch (failpoint "cluster.apply.<shard>.<replica>" injects
/// per-replica apply failures), the per-replica outcomes + post-apply
/// content digests are compared, and the largest agreeing group wins. The
/// batch acks iff that group has at least W members (write_quorum, default
/// majority). A replica that failed to apply or disagreed with the winning
/// group is marked *stale*: excluded from Pick like a dead replica until
/// the anti-entropy scrubber repairs it back to digest equality and
/// re-admits it. The serving invariant this buys: every replica a query
/// can read is digest-equal to the winning group's content.
///
/// Kill/Revive model *serving-path* failure (a replica that stops
/// answering): a killed replica is skipped by Pick but still applies
/// mutations, so revival needs no resync. Durability of the data itself is
/// the WAL/checkpoint layer's job (per-replica SnapshotStores).
class ReplicaSet {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    size_t num_replicas = 1;
    /// LiveEngine options template. `engine.store` is ignored; per-replica
    /// stores arrive via `replica_stores`.
    ingest::LiveEngine::Options engine;
    /// Per-replica SnapshotStores (checkpoints + WAL), parallel to replica
    /// index; empty or null entries disable durability for that replica.
    /// Not owned.
    std::vector<store::SnapshotStore*> replica_stores;
    serve::CircuitBreaker::Options breaker;
    /// Replicas that must apply a batch — and agree on its outcome and
    /// post-apply digest — before it acks. 0 = majority (R/2 + 1); values
    /// above R clamp to R. 1 turns quorum off (any single success acks).
    size_t write_quorum = 0;
    /// Optional metrics sink (cluster.apply.* counters,
    /// serve.replica.stale gauge). Not owned.
    serve::MetricsRegistry* metrics = nullptr;

    /// Tail tolerance: per-replica latency tracking is always on (cheap);
    /// slow-outlier *ejection* activates when `eject_multiple > 0`. An
    /// ejection is a latency-tripped CircuitBreaker per replica: the
    /// verdict trips it, its backoff and single probe slot run the rest.
    struct Tail {
      /// Shape of the per-replica decayed latency window.
      WindowedQuantile::Options latency_window;
      /// Eject a replica whose tracked `eject_quantile` exceeds this
      /// multiple of the median of its admitted peers' quantiles.
      /// 0 disables ejection.
      double eject_multiple = 0;
      double eject_quantile = 0.95;
      /// Both the replica and at least one peer need this many windowed
      /// samples before an ejection verdict counts.
      uint64_t eject_min_samples = 32;
      /// First ejection duration (the latency breaker's open_base);
      /// doubles per consecutive re-ejection, capped at eject_max.
      std::chrono::milliseconds eject_base{1000};
      std::chrono::milliseconds eject_max{8000};
      /// Probe successes required before the re-admit verdict runs.
      size_t eject_probes = 3;
    };
    Tail tail;
  };

  /// Builds R replicas over `catalog` (one shared immutable cold-start
  /// base engine, so construction cost is one index build, not R).
  ReplicaSet(uint32_t shard_id, std::shared_ptr<const DataLakeCatalog> catalog,
             Options options);

  /// Wraps already-recovered engines (ClusterEngine::Recover);
  /// `options.num_replicas` / `engine` / `replica_stores` are ignored —
  /// the engines arrive fully built.
  ReplicaSet(uint32_t shard_id,
             std::vector<std::unique_ptr<ingest::LiveEngine>> replicas,
             Options options);

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  uint32_t shard_id() const { return shard_id_; }
  size_t num_replicas() const { return replicas_.size(); }

  /// Write-path failpoint of one replica: "cluster.apply.<shard>.<replica>"
  /// (the read path's sibling is "cluster.exec.<shard>.<replica>").
  static std::string ApplyFailpointName(uint32_t shard, size_t replica);

  // --- Read path --------------------------------------------------------

  struct Route {
    size_t replica = 0;
    const ingest::LiveEngine* engine = nullptr;
    serve::CircuitBreaker::Permit permit =
        serve::CircuitBreaker::Permit::kAllowed;
  };

  /// Picks a live, non-stale replica whose breaker admits a call, rotating
  /// the starting replica across calls so load spreads. `exclude` skips
  /// one replica (the one that just failed; SIZE_MAX = none). Slow-ejected
  /// replicas are skipped on the first pass; if *only* ejected replicas
  /// remain pickable, the second pass admits them anyway — ejection trims
  /// the tail, it never makes a shard unavailable (the "last healthy
  /// replica is never ejected" floor, enforced at both eject time and pick
  /// time). False when no replica is available — the shard is effectively
  /// down for this query.
  bool Pick(Clock::time_point now, size_t exclude, Route* route);

  /// Feeds an attempt's outcome into the routed replica's breaker, and —
  /// when `latency_us >= 0` — its service latency into the replica's
  /// decayed quantile window, where the slow-outlier ejection check runs.
  /// Cancelled attempts must go through RecordNeutral instead: a hedge
  /// loser's unwind time is not a service-latency sample.
  void RecordOutcome(size_t replica, bool success, Clock::time_point now,
                     double latency_us);
  void RecordOutcome(size_t replica, bool success, Clock::time_point now) {
    RecordOutcome(replica, success, now, /*latency_us=*/-1);
  }

  /// Cancelled attempt: releases breaker and ejection probe slots without
  /// biasing the failure window or the latency quantile either way.
  void RecordNeutral(size_t replica, Clock::time_point now);

  // --- Health -----------------------------------------------------------

  void Kill(size_t replica) { alive_[replica]->store(false); }
  void Revive(size_t replica) { alive_[replica]->store(true); }
  bool alive(size_t replica) const { return alive_[replica]->load(); }
  size_t num_alive() const;

  /// Stale = content diverged from the quorum (failed/disagreeing apply,
  /// or a digest mismatch found by the scrubber): excluded from Pick and
  /// from quorum votes until repair verifies digest equality and clears
  /// the flag. Stale replicas still receive writes best-effort so repair
  /// diffs stay small.
  void MarkStale(size_t replica);
  void ClearStale(size_t replica);
  bool stale(size_t replica) const { return stale_[replica]->load(); }
  size_t num_stale() const;

  // --- Tail tolerance ---------------------------------------------------

  /// Tracked latency quantile of one replica (microseconds) over the
  /// decayed window; 0 when the window is empty.
  double LatencyQuantile(size_t replica, double q, Clock::time_point now) const;
  /// Latency samples currently inside the replica's window.
  uint64_t LatencySamples(size_t replica, Clock::time_point now) const;
  /// True while the replica's latency breaker is open (ejected) or
  /// half-open (probing).
  bool slow_ejected(size_t replica) const;
  /// Lifetime count of slow-outlier ejections of one replica.
  uint64_t slow_ejections(size_t replica) const;
  size_t num_ejected() const;

  serve::CircuitBreaker* breaker(size_t replica) {
    return breakers_[replica].get();
  }
  ingest::LiveEngine* replica(size_t i) { return replicas_[i].get(); }
  const ingest::LiveEngine* replica(size_t i) const {
    return replicas_[i].get();
  }

  // --- Write path -------------------------------------------------------

  /// Effective W: options.write_quorum clamped to [1, R]; 0 = majority.
  size_t write_quorum() const;

  /// Quorum write (see class comment). Every replica — killed and stale
  /// ones included — attempts the batch; non-stale replicas vote with
  /// (outcome, post-apply digest); the largest agreeing group wins ties by
  /// lowest replica index. Acks with the winning group's outcome when the
  /// group reaches W; otherwise every op reports kUnavailable and nothing
  /// is acknowledged (all-replica failure fail-stops the write path with
  /// no replica marked stale — they all still agree on the old state).
  /// Voters outside the winning group are marked stale either way.
  ingest::LiveEngine::BatchOutcome ApplyBatch(ingest::LiveEngine::Batch batch);

  /// Visible tables of this shard (the first non-stale replica's current
  /// generation), copied; rebalance and tests use this as the shard's
  /// authoritative content.
  std::vector<Table> VisibleTables() const;

 private:
  /// Per-replica breakers, liveness/stale flags and latency tail state,
  /// plus the metric handles; shared by both constructors.
  void InitReplicaState(const Options& options);
  void ExportStaleGauge();
  void ExportEjectedGauge();
  /// The peer-median verdict: trips the replica's latency breaker when its
  /// tracked quantile exceeds eject_multiple x the median of its admitted
  /// (latency breaker closed) peers' quantiles. Returns whether it did.
  /// Caller holds tail_mu_.
  bool EjectIfSlowLocked(size_t replica, Clock::time_point now);

  uint32_t shard_id_;
  size_t write_quorum_option_ = 0;
  Options::Tail tail_options_;
  std::vector<std::unique_ptr<ingest::LiveEngine>> replicas_;
  std::vector<std::unique_ptr<serve::CircuitBreaker>> breakers_;
  std::vector<std::unique_ptr<std::atomic<bool>>> alive_;
  std::vector<std::unique_ptr<std::atomic<bool>>> stale_;
  std::atomic<size_t> next_replica_{0};

  /// Decayed service-latency window per replica.
  std::vector<std::unique_ptr<WindowedQuantile>> latency_;
  /// Slow-outlier ejection per replica: a CircuitBreaker tripped only by
  /// EjectIfSlowLocked (open = ejected, half-open = probing, with one probe
  /// slot and eject_probes successes to close). Its window is unused.
  std::vector<std::unique_ptr<serve::CircuitBreaker>> ejectors_;
  /// Serializes the multi-step ejector sequences: Pick's probe start (with
  /// its window reset) and RecordOutcome's verdicts.
  std::mutex tail_mu_;

  // Metric handles (null without a registry).
  serve::Counter* outcome_mismatch_ = nullptr;
  serve::Counter* replica_failures_ = nullptr;
  serve::Counter* quorum_failures_ = nullptr;
  serve::Gauge* stale_gauge_ = nullptr;
  serve::Counter* eject_counter_ = nullptr;
  serve::Gauge* ejected_gauge_ = nullptr;
};

}  // namespace lake::cluster

#endif  // LAKE_CLUSTER_REPLICA_SET_H_
