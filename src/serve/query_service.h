#ifndef LAKE_SERVE_QUERY_SERVICE_H_
#define LAKE_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_engine.h"
#include "ingest/generation.h"
#include "search/discovery_engine.h"
#include "serve/admission.h"
#include "serve/circuit_breaker.h"
#include "serve/metrics.h"
#include "serve/result_cache.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace lake::ingest {
class LiveEngine;
}  // namespace lake::ingest

namespace lake::serve {

/// Query flavors the service multiplexes over one DiscoveryEngine.
enum class QueryKind {
  kKeyword,     // free-text metadata search
  kJoin,        // joinable-column search (request.join_method)
  kUnion,       // unionable-table search (request.union_method)
  kCorrelated,  // joinable + correlated numeric search
};

/// One query. The request owns its inputs except `union_table`, which must
/// outlive the call (tables are large; the service never copies them).
struct QueryRequest {
  QueryKind kind = QueryKind::kKeyword;

  std::string keyword;                  // kKeyword
  std::vector<std::string> values;      // kJoin / kCorrelated join key
  std::vector<double> numeric_values;   // kCorrelated numeric column
  const Table* union_table = nullptr;   // kUnion

  JoinMethod join_method = JoinMethod::kJosie;
  UnionMethod union_method = UnionMethod::kStarmie;
  size_t k = 10;
  /// Exclude a self-match by table id (union search, single-engine modes).
  int64_t exclude = -1;
  /// Exclude a self-match by table name (union search, cluster mode —
  /// table ids are shard-local there, so names are the only stable way to
  /// address a table). Ignored in single-engine modes.
  std::string exclude_name;

  /// Scheduling class: under overload, batch queries are shed before any
  /// interactive query is touched.
  Priority priority = Priority::kInteractive;

  /// Per-query budget; unset means Options::default_deadline (whose zero
  /// default means no deadline), while an explicit 0ms expires
  /// immediately. The budget covers queue wait + execution, so an
  /// overloaded service fails queued queries fast.
  std::optional<std::chrono::milliseconds> deadline;
  /// Skip cache lookup AND result insertion for this query.
  bool bypass_cache = false;
  /// Refuse brownout for this query: if the requested method cannot serve
  /// it, fail (kUnavailable) rather than answer with a cheaper method.
  /// Also vetoes approx_ok routing.
  bool require_exact_method = false;

  /// Opt into the sampling-based approximate tier (kJoin only): the
  /// service may rewrite join_method to JoinMethod::kApprox at admission
  /// when the engine built the sample index. Approximate answers carry a
  /// confidence interval in each result's `why` and set
  /// QueryResponse::approx; candidates whose interval cannot settle the
  /// ranking are verified exactly before they are returned.
  bool approx_ok = false;
  /// Per-estimate error budget delta for the approximate tier: intervals
  /// cover the truth with probability >= 1 - delta. <= 0 means the engine
  /// default (0.1); values >= 1 are rejected. Ignored unless the query is
  /// served by JoinMethod::kApprox.
  double error_budget = -1;
};

/// Outcome of one query. Exactly one of `tables` / `columns` is populated
/// on success, depending on the query kind.
struct QueryResponse {
  Status status;
  std::vector<TableResult> tables;   // keyword / union
  std::vector<ColumnResult> columns; // join / correlated
  bool cache_hit = false;
  /// True when a brownout fallback (e.g. Starmie -> TUS) answered instead
  /// of the requested method; results are best-effort, not the requested
  /// quality tier.
  bool degraded = false;
  /// Modality that actually produced the answer ("union.tus",
  /// "join.josie", ...); empty for cache hits and unexecuted failures.
  std::string served_by;
  /// True when the sampling-based approximate tier produced the answer
  /// (approx_ok routing or join brownout); every result's `why` then
  /// carries its confidence interval or the exact-fallback value.
  bool approx = false;
  /// Cluster-mode provenance, parallel to tables/columns (empty in
  /// single-engine modes): each hit's stable table name and owning shard.
  std::vector<std::string> table_names;
  std::vector<uint32_t> shards;
  /// Cluster mode: shards that failed to answer within their deadline
  /// budget. Non-empty implies `degraded` — the hits are partial coverage.
  std::vector<uint32_t> missing_shards;
  double latency_ms = 0;  // admission to completion, incl. queue wait
};

/// Admission + completion handle returned by Submit. Cancelling via
/// `cancel` makes the query unwind at its next polling point with
/// kCancelled; the future is always eventually satisfied.
struct SubmittedQuery {
  std::future<QueryResponse> response;
  std::shared_ptr<CancelToken> cancel;
};

/// The serving layer of Figure 1's discovery system: wraps a read-only
/// DiscoveryEngine behind a thread-pool executor with adaptive admission
/// control (AIMD concurrency limit + CoDel dequeue shedding, batch shed
/// first), per-query deadlines with cooperative cancellation, a sharded
/// LRU result cache keyed by canonical query hashes (hits are answered on
/// the submitting thread, with no pool hand-off), per-modality circuit
/// breakers with graceful brownout to the survey's cheap methods
/// (Starmie -> TUS, JOSIE -> LSH Ensemble), and a MetricsRegistry every
/// component reports into. The engine's indexes are immutable after
/// construction, so worker threads query them concurrently without locks.
class QueryService {
 public:
  struct Options {
    size_t num_workers = 4;
    /// Hard cap on queries admitted but not yet finished; the adaptive
    /// limit lives in [admission.min_limit, max_pending]. Submit beyond
    /// the live limit returns kOverloaded immediately (backpressure to
    /// the caller).
    size_t max_pending = 256;

    /// Adaptive admission (AIMD + CoDel). Unset (zero)
    /// admission.initial_limit / latency target / CoDel target are derived
    /// at construction: initial limit = min(admission.max_limit,
    /// max_pending), and when default_deadline is set, latency target =
    /// deadline / 2 and CoDel target = deadline / 10. While no query
    /// carries a deadline and no latency target is set, nothing signals
    /// congestion, so the limit holds at its initial value.
    AdmissionController::Options admission;

    /// Per-modality circuit breakers keyed by (QueryKind, method).
    bool enable_breakers = true;
    CircuitBreaker::Options breaker;

    /// Brownout: when the requested method's breaker refuses, or the
    /// remaining deadline budget is below the method's tracked p95
    /// execution latency, serve the cheaper surveyed method and flag the
    /// response degraded instead of failing.
    bool enable_brownout = true;

    bool enable_cache = true;
    ResultCache::Options cache;
    std::chrono::milliseconds default_deadline{0};  // 0 = none
    /// Test/fault-injection instrumentation: runs exactly once per
    /// admitted query — on the submitting thread after the lookup for a
    /// cache hit, on the worker thread after dequeue (before the engine
    /// executes) for everything else.
    std::function<void(const QueryRequest&)> pre_execute_hook;
  };

  /// Serves a frozen engine (not owned; it must outlive the service),
  /// wrapped once in a delta-less ingest::Generation that every query
  /// reads like a live one.
  QueryService(const DiscoveryEngine* engine, Options options);

  /// Serves a live (online-ingesting) engine instead of a frozen one:
  /// every query acquires the current generation RCU-style and answers
  /// keyword/join/union with base+delta merged top-k, so tables added
  /// through the ingest pipeline are discoverable without a restart and
  /// removed tables disappear immediately. Cache keys mix the generation's
  /// publish version, so a publish logically invalidates stale entries.
  QueryService(const ingest::LiveEngine* live, Options options);

  /// Serves a sharded cluster: queries scatter to every shard and gather
  /// through the cluster's N-way merge; per-query provenance
  /// (table_names/shards/missing_shards) reports where each hit lives. A
  /// response missing shards is flagged degraded and never cached. Cache
  /// keys mix the cluster's mutation version.
  QueryService(const cluster::ClusterEngine* cluster, Options options);

  /// Drains in-flight queries before returning.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits a query. A cache hit is answered on the calling thread and its
  /// future is already satisfied when Submit returns; any other query runs
  /// asynchronously on the pool. Fails fast with kOverloaded when the live
  /// admission limit is reached (batch sheds first, hits included) and
  /// with kInvalidArgument for malformed requests (e.g. kUnion without a
  /// table). Never blocks, unless pre_execute_hook does on a hit.
  Result<SubmittedQuery> Submit(QueryRequest request);

  /// Synchronous convenience wrapper: admits, waits, returns. Overload and
  /// validation failures surface in QueryResponse::status.
  QueryResponse Execute(QueryRequest request);

  /// Logically invalidates every cached result by bumping the engine
  /// epoch (part of every cache key), then frees the old entries.
  void InvalidateCache();

  /// Epoch mixed into cache keys; bumped by InvalidateCache.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Canonical cache key of a request under the current epoch: a 64-bit
  /// hash of (kind, method, k, exclude, epoch, query content). Value order
  /// is canonicalized for set-semantics queries, so permutations of the
  /// same join query share one entry.
  uint64_t CacheKey(const QueryRequest& request) const;

  /// Modality key of a request — "<kind>" or "<kind>.<method>", e.g.
  /// "union.starmie" — naming its circuit breaker, its execution-latency
  /// histogram (serve.exec.<modality>) and its failpoint site
  /// (serve.exec.<modality>).
  static std::string ModalityName(const QueryRequest& request);

  /// One breaker's externally visible state.
  struct BreakerStatus {
    std::string modality;
    CircuitBreaker::State state = CircuitBreaker::State::kClosed;
    double failure_rate = 0;
    uint64_t trips = 0;
  };

  /// Service health: overload state — which breakers are open, the live
  /// admission limit, and in-flight count — plus, per serving mode, WAL and
  /// shard state. `ok` means no breaker is open and the service is not
  /// degraded (only cluster mode sets `degraded`: a shard with no serving
  /// replica).
  struct HealthSnapshot {
    bool ok = true;
    bool degraded = false;

    size_t admission_limit = 0;
    size_t admission_in_flight = 0;
    size_t open_breakers = 0;
    std::vector<BreakerStatus> breakers;

    /// Live-mode WAL state (all zero in frozen mode or with the WAL
    /// disabled). wal_unsynced_records is the acknowledged-but-volatile
    /// loss window — 0 under per-append fsync.
    bool wal_enabled = false;
    uint64_t wal_last_lsn = 0;
    uint64_t wal_durable_lsn = 0;
    uint64_t wal_unsynced_records = 0;

    /// Cluster mode: per-shard replica/breaker health (empty otherwise).
    /// A shard with zero *serving* replicas (alive, non-stale, breaker not
    /// open — exactly the replicas Pick may return) marks the service
    /// degraded.
    std::vector<cluster::ClusterEngine::ShardHealth> shards;
    /// Replicas excluded from reads because their content diverged from
    /// the write quorum (anti-entropy repairs and re-admits them).
    size_t stale_replicas = 0;
    /// Replicas the latency-outlier state machine currently holds in the
    /// ejected/probing state (skipped by replica pick unless they are the
    /// last resort; does not mark the service degraded).
    size_t ejected_replicas = 0;
    /// At least one shard's replicas disagree on their content digest —
    /// replication is converging (or a repair is pending), answers from
    /// non-stale replicas are still correct.
    bool replicas_divergent = false;
  };

  /// Snapshot of health state; also refreshes the serve.degraded,
  /// serve.admission.*, serve.breakers.open
  /// and per-breaker state gauges, so exporting metrics after Health()
  /// reflects the current picture.
  HealthSnapshot Health();

  /// Queries admitted and not yet completed.
  size_t pending() const { return admission_->in_flight(); }

  MetricsRegistry& metrics() { return metrics_; }
  ResultCache& cache() { return cache_; }
  AdmissionController& admission() { return *admission_; }
  BreakerSet& breakers() { return breakers_; }
  const Options& options() const { return options_; }

 private:
  /// Engine snapshot one query executes against, pinned once at admission
  /// (its version keys the cache lookup and the insert). Outside cluster
  /// mode `gen` pins the generation every query kind reads through the
  /// ingest::Merged* functions: the acquired live generation (RCU: the
  /// swapped-out state stays alive until this query drains) or the frozen
  /// engine's generation, which has no delta. A queued miss therefore
  /// executes against the generation current at admission, not at dequeue.
  /// In cluster mode `cluster` is set and `gen` stays null (the cluster
  /// pins per-shard generations internally).
  struct ExecContext {
    std::shared_ptr<const ingest::Generation> gen;
    const cluster::ClusterEngine* cluster = nullptr;
  };

  /// A cache miss (or uncached query) on its pool worker: queue-wait
  /// record, hook, CoDel shed, deadline check, execution against the
  /// context pinned at admission, and the insert under `key` (nullopt:
  /// uncached).
  QueryResponse Run(const QueryRequest& request, const ExecContext& ctx,
                    std::optional<uint64_t> key, const CancelToken* cancel,
                    std::chrono::steady_clock::time_point admitted);
  /// Completion shared by inline hits and pool-run queries: status
  /// counters, per-kind latency, AIMD feedback and admission release.
  QueryResponse Finish(QueryKind kind,
                       std::chrono::steady_clock::time_point admitted,
                       QueryResponse response);
  Status Validate(const QueryRequest& request) const;
  uint64_t CacheKeyWithVersion(const QueryRequest& request,
                               uint64_t version) const;
  /// Breaker + brownout dispatch: picks the modality (requested or
  /// fallback), executes it, and feeds outcomes back into the breakers.
  void ExecutePlan(const QueryRequest& request, const ExecContext& ctx,
                   const CancelToken* cancel, QueryResponse* response);
  /// Executes one concrete (kind, method) modality against the engine.
  void ExecuteEngine(const QueryRequest& request, JoinMethod join_method,
                     UnionMethod union_method, const std::string& modality,
                     const ExecContext& ctx, const CancelToken* cancel,
                     QueryResponse* response);
  /// The optional tiers the served engine(s) built: the approximate sample
  /// index, TUS, and the LSH Ensemble join index. Both approx_ok routing
  /// and the brownout fallbacks decide from the pinned context's answer.
  struct Tiers {
    bool approx_join = false;
    bool tus = false;
    bool lsh_join = false;
  };
  static Tiers BuiltTiers(const ExecContext& ctx);
  /// The cheaper surveyed fallback for a modality, if the engine has it.
  struct Fallback {
    JoinMethod join_method;
    UnionMethod union_method;
    std::string modality;
    Counter* counter = nullptr;  // serve.brownout.<kind>
  };
  std::optional<Fallback> FallbackFor(const QueryRequest& request,
                                      const ExecContext& ctx) const;
  /// Cluster-mode dispatch: scatter-gather through the cluster engine and
  /// translate hits into the response (ids + names + shards + missing).
  void ExecuteCluster(const QueryRequest& request, JoinMethod join_method,
                      UnionMethod union_method, const CancelToken* cancel,
                      QueryResponse* response);
  void RecordMergeStats(const ingest::MergeStats& stats);
  /// Harvests one approximate query's work accounting into the approx.*
  /// metrics (estimates, fallback/interval decisions, widths, samples).
  void RecordApproxStats(const approx::ApproxQueryStats& stats);

  /// The generation queries read outside cluster mode: the live engine's
  /// current one, or the frozen engine's (built once at construction).
  std::shared_ptr<const ingest::Generation> CurrentGeneration() const;

  /// Frozen mode: the constructor's engine wrapped in a delta-less
  /// generation; null in live and cluster modes.
  std::shared_ptr<const ingest::Generation> frozen_;
  const ingest::LiveEngine* live_ = nullptr;
  const cluster::ClusterEngine* cluster_ = nullptr;
  Options options_;
  MetricsRegistry metrics_;
  ResultCache cache_;
  std::unique_ptr<AdmissionController> admission_;
  BreakerSet breakers_;
  std::atomic<uint64_t> epoch_{0};

  // Hot-path metric handles (resolved once; the registry owns them).
  Counter* queries_admitted_;
  Counter* queries_rejected_;
  Counter* queries_deadline_exceeded_;
  Counter* queries_cancelled_;
  Counter* queries_failed_;
  /// FailedPrecondition / breaker-open outcomes: the modality cannot serve
  /// — the degraded-mode signal, distinct from other failures.
  Counter* queries_unavailable_;
  Counter* shed_limit_;
  Counter* shed_batch_;
  Counter* shed_codel_;
  Counter* brownout_total_;
  Counter* brownout_union_;
  Counter* brownout_join_;
  Counter* breaker_fast_fail_;
  Gauge* degraded_gauge_;
  Gauge* admission_limit_gauge_;
  Gauge* admission_in_flight_gauge_;
  Gauge* breakers_open_gauge_;
  /// Per-modality breaker state as one labeled family
  /// (serve.breaker.state{modality=...}) instead of a gauge per
  /// concatenated name.
  GaugeFamily* breaker_state_gauges_;
  Counter* cache_hits_;
  Counter* cache_misses_;
  /// Approximate-tier accounting: queries served by join.approx, estimator
  /// invocations, and how each candidate was settled (interval vs exact
  /// fallback — the fallback rate is exact_fallbacks / decisions).
  Counter* approx_queries_;
  Counter* approx_estimates_;
  Counter* approx_exact_fallbacks_;
  Counter* approx_interval_decisions_;
  /// Final interval widths (recorded as width * 1e4, i.e. basis points)
  /// and final per-candidate sample sizes.
  LatencyHistogram* approx_interval_width_;
  LatencyHistogram* approx_sample_size_;
  /// Merged-query provenance: results served from the immutable base vs
  /// the ingest delta. Counted in frozen and live modes (a frozen engine
  /// answers from its base only); the cluster reports its own
  /// cluster.shard.delta_hits instead.
  Counter* ingest_base_hits_;
  Counter* ingest_delta_hits_;
  /// Submit-to-dequeue wait of queries that went through the pool (cache
  /// hits complete inline and never queue).
  LatencyHistogram* queue_wait_;
  LatencyHistogram* latency_by_kind_[4];

  // Last member: destroyed (and therefore drained) first, while the
  // cache/metrics/admission state the workers report into are still alive.
  ThreadPool pool_;
};

}  // namespace lake::serve

#endif  // LAKE_SERVE_QUERY_SERVICE_H_
