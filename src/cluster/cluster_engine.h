#ifndef LAKE_CLUSTER_CLUSTER_ENGINE_H_
#define LAKE_CLUSTER_CLUSTER_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/replica_set.h"
#include "cluster/retry_budget.h"
#include "cluster/ring.h"
#include "ingest/live_engine.h"
#include "serve/metrics.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace lake::cluster {

class Scrubber;

/// Hedging/budget state every scattered query hands its per-shard tasks
/// (so the shard runners stay free templates in the .cc). The engine
/// builds it once, at construction, as a const member; shard tasks hold it
/// by reference. It and the members its pointers alias outlive the scatter
/// pool — abandoned shard tasks may touch them after the query returns,
/// never after the engine dies.
struct TailContext {
  /// Never null, nor are `hedges_dispatched` and `hedges_won`.
  RetryBudget* budget = nullptr;
  /// Non-null iff hedging is enabled; primaries of hedged attempts run
  /// here so a saturated scatter pool cannot starve its own hedges.
  ThreadPool* hedge_pool = nullptr;
  double hedge_quantile = 0.95;
  std::chrono::nanoseconds hedge_min_delay{0};
  std::chrono::nanoseconds hedge_max_delay{0};
  uint64_t hedge_min_samples = 0;
  std::atomic<uint64_t>* hedges_dispatched = nullptr;
  std::atomic<uint64_t>* hedges_won = nullptr;
  serve::Counter* hedge_counter = nullptr;
  serve::Counter* hedge_win_counter = nullptr;
  serve::Counter* budget_denied_counter = nullptr;
};

/// The cluster's per-query metric handles (all null without a registry),
/// set once at construction like TailContext.
struct ScatterMetrics {
  serve::Counter* total = nullptr;
  serve::Counter* degraded = nullptr;
  serve::Counter* failovers = nullptr;
  serve::CounterFamily* shard_queries = nullptr;
  serve::CounterFamily* shard_failovers = nullptr;
  serve::CounterFamily* shard_missing = nullptr;
  serve::CounterFamily* shard_delta_hits = nullptr;
};

/// A ranked table hit with cluster provenance. Tables are identified by
/// name (the stable identity — ids are shard- and generation-local);
/// `local_id` is the lake-visible id within the owning shard's generation.
struct TableHit {
  std::string table;
  double score = 0;
  std::string why;
  uint32_t shard = 0;
  TableId local_id = 0;
};

/// A ranked column hit with cluster provenance.
struct ColumnHit {
  std::string table;
  size_t column_index = 0;
  double score = 0;
  std::string why;
  uint32_t shard = 0;
  TableId local_id = 0;
};

/// Per-shard execution record of one scattered query.
struct ShardTrace {
  uint32_t shard = 0;
  size_t replica = 0;  // replica of the final attempt (or winning hedge)
  size_t attempts = 0; // 1 = no failover (a hedge is not a failover)
  Status status;
  size_t results = 0;
  double latency_ms = 0;
  bool hedged = false;     // a duplicate read was dispatched to a sibling
  bool hedge_won = false;  // ... and its answer was the one used
};

/// One scattered query's merged answer. `degraded` is true when at least
/// one shard could not answer in time (its id is in `missing_shards`) and
/// the hits are therefore partial; status stays OK unless EVERY shard
/// failed. This is the "slow shard costs coverage, never a hung query"
/// contract.
template <typename Hit>
struct ScatterResponse {
  Status status;
  std::vector<Hit> hits;
  bool degraded = false;
  std::vector<uint32_t> missing_shards;
  std::vector<ShardTrace> traces;
};

using TableQueryResponse = ScatterResponse<TableHit>;
using ColumnQueryResponse = ScatterResponse<ColumnHit>;

/// Sharded, replicated serving over N in-process LiveEngine shards — the
/// scale-out layer the survey's future-directions section calls for.
///
///   - *Partitioning*: a consistent-hash ring over table names assigns
///     each table to exactly one shard; the shard indexes only its slice,
///     so index build parallelizes across shards and each shard's indexes
///     stay small.
///   - *Replication*: R replicas per shard, content-identical (mutations
///     apply to all), each guarded by a circuit breaker; reads round-robin
///     across healthy replicas and fail over on error (hedged retry on a
///     sibling), so one dead replica costs nothing but a retry.
///   - *Scatter-gather*: queries fan out to every shard on a thread pool
///     with a per-shard deadline budget, per-shard top-k lists come back,
///     and the N-way merge in topk_merge.h (score desc, ties by table
///     name) produces an answer identical to one unpartitioned engine over
///     the same lake. Keyword search runs the distributed-IDF two-phase
///     protocol (gather per-shard BM25 corpus stats, merge, score with the
///     global stats) so even corpus-dependent BM25 scores match exactly.
///   - *Topology as RCU*: the ring + replica sets are published as one
///     immutable Topology snapshot behind an atomic shared_ptr; queries
///     acquire it once and never observe a half-rebalanced cluster.
class ClusterEngine {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    size_t num_shards = 2;
    size_t num_replicas = 1;
    HashRing::Options ring;
    /// LiveEngine options template for every replica (store/WAL wiring is
    /// overridden per replica when `store_root` is set).
    ingest::LiveEngine::Options engine;
    /// Scatter/build pool width; 0 = one worker per shard.
    size_t num_workers = 0;
    /// Per-(shard,replica) breaker options.
    serve::CircuitBreaker::Options breaker;
    /// Budget each shard gets per query (also capped by the caller's
    /// remaining deadline); 0 = caller's deadline only. A shard that
    /// exceeds it is reported missing and the query degrades to partial.
    std::chrono::milliseconds shard_deadline{0};
    /// Max attempts per shard per query (1 = no failover).
    size_t max_failover_attempts = 2;
    /// Durability root: per-replica SnapshotStores (checkpoints + WAL) at
    /// "<store_root>/shard-<s>/replica-<r>". Empty = none.
    std::string store_root;
    /// Replicas per shard that must apply (and agree on) a mutation batch
    /// before it acks; 0 = majority (R/2 + 1). See ReplicaSet::Options.
    size_t write_quorum = 0;
    /// Run the background anti-entropy scrubber (digest comparison +
    /// divergence repair) on this cadence. Off by default; ScrubOnce() is
    /// always available for explicit passes.
    bool enable_scrubber = false;
    uint64_t scrub_interval_ms = 100;
    /// Optional metrics sink (cluster.* metrics, per-shard labeled
    /// families).
    serve::MetricsRegistry* metrics = nullptr;

    /// Tail tolerance. Per-replica latency tracking and the retry/hedge
    /// budget are always on (cheap); hedged reads and slow-outlier
    /// ejection are opt-in.
    struct Tail {
      /// Hedged reads: when a read sub-query's primary replica has not
      /// answered within a delay derived from its tracked p95, dispatch
      /// the same sub-query to a sibling replica; first response wins and
      /// the loser is cancelled. Mutations never pass through this path.
      bool enable_hedging = false;
      /// Quantile of the primary's tracked latency that sets the hedge
      /// delay.
      double hedge_quantile = 0.95;
      /// Clamp for the derived hedge delay. Until the primary has
      /// hedge_min_samples in its window, the delay is hedge_max_delay.
      std::chrono::milliseconds hedge_min_delay{1};
      std::chrono::milliseconds hedge_max_delay{50};
      uint64_t hedge_min_samples = 16;
      /// Retry/hedge budget (shared by hedges and failover retries):
      /// extra attempts allowed per primary sub-query over the rolling
      /// window, plus a burst floor. See RetryBudget.
      double budget_ratio = 0.1;
      uint64_t budget_min_tokens = 10;
      size_t budget_window_slices = 8;
      std::chrono::milliseconds budget_slice_width{1000};
      /// Per-replica latency window shape and slow-outlier ejection
      /// knobs, passed to every ReplicaSet as is. Ejection is off by
      /// default (eject_multiple 0).
      ReplicaSet::Options::Tail replica;
    };
    Tail tail;
  };

  /// Builds a cluster over `lake`: partitions the tables by ring owner and
  /// builds every shard's indexes in parallel on the pool.
  ClusterEngine(const DataLakeCatalog& lake, Options options);

  /// Rebuilds a cluster from per-replica snapshot stores under
  /// `options.store_root` (written by Checkpoint of a cluster built with
  /// the same store_root). Shard directories are discovered by scanning;
  /// directories holding a RETIRED marker (RemoveShard) or containing no
  /// committed snapshot and no WAL in any replica (an AddShard that died
  /// before its first checkpoint) are skipped, though their ids still
  /// advance the shard-id sequence so ids are never reused. After the
  /// topology is rebuilt, tables stranded on a non-owner shard by a crash
  /// mid-rebalance are dropped (the ring owner always holds a durable copy
  /// first, so this completes the migration instead of double-counting
  /// BM25 corpus statistics).
  static Result<std::unique_ptr<ClusterEngine>> Recover(Options options);

  ~ClusterEngine();

  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  // --- Query surface (mirrors LiveEngine's merged queries) --------------

  TableQueryResponse Keyword(const std::string& query, size_t k,
                             const CancelToken* cancel = nullptr) const;

  /// `error_budget` applies to JoinMethod::kApprox only: each shard's
  /// approximate tier sizes its confidence intervals with it (<= 0 keeps
  /// the engine default).
  ColumnQueryResponse Joinable(const std::vector<std::string>& query_values,
                               JoinMethod method, size_t k,
                               const CancelToken* cancel = nullptr,
                               double error_budget = -1) const;

  /// `exclude_name` drops a self-match by table name (empty = none) —
  /// cluster callers cannot use ids, which are shard-local.
  TableQueryResponse Unionable(const Table& query, UnionMethod method,
                               size_t k, const std::string& exclude_name = "",
                               const CancelToken* cancel = nullptr) const;

  /// Correlated numeric search, scattered to every shard's base engine
  /// (base-only, like single-node serving).
  ColumnQueryResponse Correlated(const std::vector<std::string>& key_values,
                                 const std::vector<double>& numeric_values,
                                 size_t k,
                                 const CancelToken* cancel = nullptr) const;

  // --- Ingest -----------------------------------------------------------

  /// Routes each op to its owning shard (by table name) and applies the
  /// per-shard sub-batches in parallel; every replica of a shard applies
  /// its sub-batch. The outcome is stitched back into Batch order.
  ingest::LiveEngine::BatchOutcome ApplyBatch(ingest::LiveEngine::Batch batch);

  // --- Topology ---------------------------------------------------------

  struct RebalanceStats {
    uint32_t shard = 0;      // shard added or removed
    size_t tables_moved = 0;
    size_t tables_total = 0; // visible tables cluster-wide before the move
    double duration_ms = 0;
  };

  /// Adds one shard and migrates the tables the new ring assigns to it
  /// (~1/N of the lake). Queries keep serving throughout; during the brief
  /// hand-off window a moved table may be visible on both shards, which
  /// the gather's by-name dedup hides. With a store_root the new shard is
  /// checkpointed BEFORE it is published and the donors shed their copies,
  /// so a crash at any point recovers to a consistent topology (either the
  /// move never happened, or the new shard owns its slice durably).
  Result<RebalanceStats> AddShard();

  /// Removes a shard, redistributing its tables to the survivors. With a
  /// store_root the receiving survivors are checkpointed and then the
  /// victim's store directory is marked RETIRED before the new topology
  /// publishes — Recover skips retired directories, so a removed shard can
  /// never resurrect with stale content.
  Result<RebalanceStats> RemoveShard(uint32_t shard);

  // --- Health / chaos ---------------------------------------------------

  /// Marks one replica dead for the read path (mutations still apply, so
  /// Revive needs no resync).
  Status KillReplica(uint32_t shard, size_t replica);
  Status ReviveReplica(uint32_t shard, size_t replica);

  struct ReplicaHealth {
    size_t replica = 0;
    bool alive = true;
    /// Content diverged from the quorum; excluded from reads until the
    /// scrubber repairs it (see ReplicaSet::MarkStale).
    bool stale = false;
    /// Actually eligible for Pick right now: alive, not stale, and the
    /// breaker is not open. THIS is the health signal — `alive` alone
    /// reports a breaker-tripped replica as healthy while Pick skips it.
    bool serving = true;
    /// Rolled-up content digest (LiveEngine::content_digest).
    uint64_t content_digest = 0;
    serve::CircuitBreaker::State breaker_state =
        serve::CircuitBreaker::State::kClosed;
    uint64_t breaker_trips = 0;
    /// Tracked service-latency p95 (microseconds) over the decayed
    /// window; 0 when the window is empty.
    double latency_p95_us = 0;
    uint64_t latency_samples = 0;
    /// Ejected (or probing) by the slow-outlier state machine; skipped by
    /// Pick's first pass but still a last-resort fallback, so `serving`
    /// stays true — ejection trims the tail, it never removes capacity.
    bool slow_ejected = false;
    uint64_t slow_ejections = 0;
  };
  struct ShardHealth {
    uint32_t shard = 0;
    size_t tables = 0;          // visible tables on the shard
    size_t replicas_alive = 0;
    size_t replicas_serving = 0;
    size_t replicas_stale = 0;
    size_t replicas_ejected = 0;  // slow-outlier ejected/probing
    /// All replica content digests are equal (replication is converged).
    bool digests_agree = true;
    std::vector<ReplicaHealth> replicas;
  };

  /// Per-shard health; also refreshes the cluster.shard.* labeled gauges.
  std::vector<ShardHealth> Health() const;

  /// Lifetime tail-tolerance counters (tests, bench, health surface).
  struct TailStats {
    uint64_t budget_requests = 0;  // primary sub-queries accounted
    uint64_t budget_acquired = 0;  // extra attempts granted (hedge+retry)
    uint64_t budget_denied = 0;    // extra attempts refused by the budget
    uint64_t hedges_dispatched = 0;
    uint64_t hedges_won = 0;
  };
  TailStats tail_stats() const;

  // --- Anti-entropy ------------------------------------------------------

  struct ScrubReport {
    size_t shards_checked = 0;
    /// Shards where stale flags or digest disagreement triggered repair.
    size_t shards_divergent = 0;
    /// Replicas brought back to digest equality and re-admitted to reads.
    size_t replicas_repaired = 0;
    /// Replicas still divergent after repair (left stale; next pass
    /// retries).
    size_t replicas_unrepaired = 0;
    size_t tables_copied = 0;   // repaired by copy from the canonical peer
    size_t tables_dropped = 0;  // extra/outdated copies removed
    double duration_ms = 0;
  };

  /// One anti-entropy pass: per shard, compare replica content digests
  /// (plus stale flags); on disagreement drill down to per-table digests
  /// and repair each divergent replica by copying only the differing
  /// tables from a majority-agreeing peer (copy-then-publish through the
  /// replica's own RCU generation path), then re-admit it once its digest
  /// matches. Runs on the Scrubber's cadence when enable_scrubber is set;
  /// tests and operators call it directly for deterministic passes.
  ScrubReport ScrubOnce();

  /// Background scrubber (null unless options.enable_scrubber).
  Scrubber* scrubber() { return scrubber_.get(); }

  // --- Durability -------------------------------------------------------

  /// Checkpoints every replica through its own store (shard-parallel).
  /// FailedPrecondition without a store_root.
  Status Checkpoint();

  /// Compacts every replica of every shard (shard-parallel): folds each
  /// delta into a fresh base built over the survivors, which also restores
  /// exact single-engine BM25 statistics after removes. Returns the first
  /// failure but attempts every replica regardless — a replica whose
  /// compaction fails keeps serving its current generation.
  Status CompactAll();

  /// Name → content digest of every visible table cluster-wide (each
  /// shard's authoritative copy, from its first non-stale replica). The
  /// chaos invariant checker diffs this against its oracle; rebalance
  /// dual-visibility windows collapse because the map is keyed by name.
  std::map<std::string, uint32_t> VisibleTableDigests() const;

  /// Copies of every visible table cluster-wide, sorted by name and
  /// deduplicated (a table mid-migration counts once). The chaos checker
  /// builds its single-node oracle engine from exactly this corpus.
  std::vector<Table> VisibleTables() const;

  /// Drops tables stranded on a shard the current ring does not assign
  /// them to (a rebalance that was interrupted by a crash or a failed
  /// quorum write). Strays are dropped unconditionally: every acknowledged
  /// add is durable on its ring owner before any donor sheds its copy
  /// (AddShard checkpoints the new shard before publishing the ring;
  /// RemoveShard re-homes with quorum acks before the RETIRED marker), so
  /// an owner that lacks a stray's table proves the table was removed
  /// after the stray was orphaned — re-adding it would resurrect an
  /// acknowledged remove. Returns the number of stray copies dropped.
  /// Recover runs it automatically; the chaos harness runs it at quiesce.
  size_t SweepStrayCopies();

  // --- Introspection ----------------------------------------------------

  size_t num_shards() const;
  size_t num_replicas() const { return options_.num_replicas; }
  /// Visible tables across all shards.
  size_t TotalVisibleTables() const;
  /// Owning shard of a table name under the current topology.
  uint32_t OwnerOf(const std::string& name) const;
  /// Mutation/topology sequence, mixed into serving-layer cache keys.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  const Options& options() const { return options_; }

 private:
  /// One immutable published topology (RCU like LiveEngine generations).
  struct Topology {
    HashRing ring;
    std::vector<std::shared_ptr<ReplicaSet>> shards;

    ReplicaSet* Find(uint32_t shard_id) const;
  };

  explicit ClusterEngine(Options options);  // Recover() shell

  std::shared_ptr<const Topology> topology() const {
    return topology_.load(std::memory_order_acquire);
  }
  void Publish(std::shared_ptr<const Topology> topo);

  /// Creates (and owns) the SnapshotStore for one replica directory; null
  /// when store_root is empty.
  store::SnapshotStore* StoreFor(uint32_t shard, size_t replica);

  ReplicaSet::Options ReplicaOptions(uint32_t shard);
  void InitMetrics();
  /// Starts the background scrubber when options_.enable_scrubber.
  void StartScrubber();
  /// Repairs every divergent replica of one shard toward the canonical
  /// (majority non-stale) digest. Caller holds mutate_mu_.
  void RepairShard(ReplicaSet& rs, ScrubReport* report);
  void BumpVersion() {
    version_.fetch_add(1, std::memory_order_acq_rel);
  }

  Options options_;

  /// Serializes mutations and topology changes (ApplyBatch, Add/Remove
  /// Shard, Checkpoint); queries only read the published topology.
  mutable std::mutex mutate_mu_;
  uint32_t next_shard_id_ = 0;
  /// Owned per-replica stores, keyed "shard-<s>/replica-<r>" (stores must
  /// outlive the engines using them; never shrunk).
  std::vector<std::unique_ptr<store::SnapshotStore>> stores_;

  std::atomic<std::shared_ptr<const Topology>> topology_;
  std::atomic<uint64_t> version_{0};

  // Metric handles (null without a registry).
  ScatterMetrics scatter_metrics_;
  serve::GaugeFamily* shard_tables_ = nullptr;
  serve::GaugeFamily* shard_replicas_alive_ = nullptr;
  serve::GaugeFamily* shard_replicas_serving_ = nullptr;
  serve::Counter* scrub_passes_ = nullptr;
  serve::CounterFamily* repair_replicas_ = nullptr;
  serve::CounterFamily* repair_tables_copied_ = nullptr;
  serve::CounterFamily* repair_tables_dropped_ = nullptr;
  serve::CounterFamily* repair_failures_ = nullptr;

  /// Tail tolerance: the shared retry/hedge budget, the dedicated hedge
  /// pool (hedged primaries run here so a saturated scatter pool cannot
  /// starve its own hedges), and lifetime hedge counters. Declared before
  /// pool_: abandoned scatter tasks drain with pool_ and may still touch
  /// these during teardown.
  std::unique_ptr<RetryBudget> retry_budget_;
  std::unique_ptr<ThreadPool> hedge_pool_;
  mutable std::atomic<uint64_t> hedges_dispatched_{0};
  mutable std::atomic<uint64_t> hedges_won_{0};
  /// Built from the members above and the tail options, once.
  const TailContext tail_;

  /// Scatter/build/ingest pool. Drained before the replica sets and
  /// stores it references are torn down.
  mutable std::unique_ptr<ThreadPool> pool_;
  /// Last member: the scrub thread stops before anything it touches dies.
  std::unique_ptr<Scrubber> scrubber_;
};

}  // namespace lake::cluster

#endif  // LAKE_CLUSTER_CLUSTER_ENGINE_H_
