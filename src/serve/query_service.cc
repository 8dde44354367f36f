#include "serve/query_service.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "ingest/live_engine.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace lake::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Budget brownout: the remaining deadline is compared against this
/// quantile of the method's execution latency, once the histogram holds
/// enough samples to trust it.
constexpr double kBrownoutQuantile = 0.95;
constexpr uint64_t kBrownoutMinSamples = 32;

/// Order-insensitive hash of a value multiset (join queries are sets; the
/// caller's value order must not fragment the cache).
uint64_t HashValuesUnordered(const std::vector<std::string>& values) {
  uint64_t h = 0;
  for (const std::string& v : values) h += Mix64(Hash64(v, /*seed=*/41));
  return h;
}

uint64_t HashNumbers(const std::vector<double>& values) {
  uint64_t h = 0xa5a5a5a5a5a5a5a5ULL;
  for (double v : values) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    h = HashCombine(h, bits);
  }
  return h;
}

/// Content hash of a query table: name, shape, column names and cells.
/// Union queries are whole tables, so identity (not pointer) keys the
/// cache entry.
uint64_t HashTable(const Table& t) {
  uint64_t h = Hash64(t.name(), /*seed=*/97);
  h = HashCombine(h, t.num_columns());
  h = HashCombine(h, t.num_rows());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(c);
    h = HashCombine(h, Hash64(col.name()));
    h = HashCombine(h, static_cast<uint64_t>(col.type()));
    for (const std::string& s : col.NonNullStrings()) {
      h = HashCombine(h, Hash64(s));
    }
  }
  return h;
}

size_t KindIndex(QueryKind kind) { return static_cast<size_t>(kind); }

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kKeyword:
      return "keyword";
    case QueryKind::kJoin:
      return "join";
    case QueryKind::kUnion:
      return "union";
    case QueryKind::kCorrelated:
      return "correlated";
  }
  return "unknown";
}

const char* JoinMethodName(JoinMethod method) {
  switch (method) {
    case JoinMethod::kExactJaccard:
      return "exact_jaccard";
    case JoinMethod::kExactContainment:
      return "exact_containment";
    case JoinMethod::kLshEnsemble:
      return "lsh_ensemble";
    case JoinMethod::kJosie:
      return "josie";
    case JoinMethod::kPexeso:
      return "pexeso";
    case JoinMethod::kApprox:
      return "approx";
  }
  return "unknown";
}

const char* UnionMethodName(UnionMethod method) {
  switch (method) {
    case UnionMethod::kTus:
      return "tus";
    case UnionMethod::kSantos:
      return "santos";
    case UnionMethod::kStarmie:
      return "starmie";
    case UnionMethod::kD3l:
      return "d3l";
  }
  return "unknown";
}

std::string ModalityNameFor(QueryKind kind, JoinMethod join_method,
                            UnionMethod union_method) {
  switch (kind) {
    case QueryKind::kKeyword:
      return "keyword";
    case QueryKind::kCorrelated:
      return "correlated";
    case QueryKind::kJoin:
      return std::string("join.") + JoinMethodName(join_method);
    case QueryKind::kUnion:
      return std::string("union.") + UnionMethodName(union_method);
  }
  return "unknown";
}

void RecordOutcome(CircuitBreaker* breaker, const Status& status,
                   Clock::time_point now) {
  if (breaker == nullptr) return;
  if (status.ok()) {
    breaker->RecordSuccess(now);
  } else if (CircuitBreaker::IsFailure(status)) {
    breaker->RecordFailure(now);
  } else {
    breaker->RecordNeutral(now);
  }
}

/// The serving layer's admission defaults derive from its own options:
/// the AIMD limit lives under the hard max_pending cap, and when queries
/// carry a default deadline, unset targets are tied to it (latency target
/// = deadline/2, CoDel sojourn target = deadline/10) so the controller
/// sheds exactly the work that would die in the queue anyway.
AdmissionController::Options DeriveAdmission(
    const QueryService::Options& options) {
  AdmissionController::Options a = options.admission;
  a.max_limit = std::min(a.max_limit, std::max<size_t>(1, options.max_pending));
  a.min_limit = std::min(a.min_limit, a.max_limit);
  if (a.initial_limit != 0) {
    a.initial_limit = std::min(a.initial_limit, a.max_limit);
  }
  if (options.default_deadline.count() > 0) {
    if (a.latency_target_ms == 0) {
      a.latency_target_ms =
          static_cast<double>(options.default_deadline.count()) / 2.0;
    }
    if (a.codel_target.count() == 0) {
      a.codel_target = options.default_deadline / 10;
    }
  }
  return a;
}

}  // namespace

QueryService::QueryService(const DiscoveryEngine* engine, Options options)
    : frozen_(engine != nullptr ? ingest::Generation::Frozen(*engine)
                                : nullptr),
      options_(std::move(options)),
      cache_(options_.cache),
      admission_(
          std::make_unique<AdmissionController>(DeriveAdmission(options_))),
      breakers_(options_.breaker),
      queries_admitted_(metrics_.GetCounter("serve.queries.admitted")),
      queries_rejected_(metrics_.GetCounter("serve.queries.rejected")),
      queries_deadline_exceeded_(
          metrics_.GetCounter("serve.queries.deadline_exceeded")),
      queries_cancelled_(metrics_.GetCounter("serve.queries.cancelled")),
      queries_failed_(metrics_.GetCounter("serve.queries.failed")),
      queries_unavailable_(metrics_.GetCounter("serve.queries.unavailable")),
      shed_limit_(metrics_.GetCounter("serve.shed.limit")),
      shed_batch_(metrics_.GetCounter("serve.shed.batch")),
      shed_codel_(metrics_.GetCounter("serve.shed.codel")),
      brownout_total_(metrics_.GetCounter("serve.brownout")),
      brownout_union_(metrics_.GetCounter("serve.brownout.union")),
      brownout_join_(metrics_.GetCounter("serve.brownout.join")),
      breaker_fast_fail_(metrics_.GetCounter("serve.breaker.fast_fail")),
      degraded_gauge_(metrics_.GetGauge("serve.degraded")),
      admission_limit_gauge_(metrics_.GetGauge("serve.admission.limit")),
      admission_in_flight_gauge_(
          metrics_.GetGauge("serve.admission.in_flight")),
      breakers_open_gauge_(metrics_.GetGauge("serve.breakers.open")),
      breaker_state_gauges_(
          metrics_.GetGaugeFamily("serve.breaker.state", "modality")),
      cache_hits_(metrics_.GetCounter("serve.cache.hits")),
      cache_misses_(metrics_.GetCounter("serve.cache.misses")),
      approx_queries_(metrics_.GetCounter("approx.queries")),
      approx_estimates_(metrics_.GetCounter("approx.estimates")),
      approx_exact_fallbacks_(metrics_.GetCounter("approx.exact_fallbacks")),
      approx_interval_decisions_(
          metrics_.GetCounter("approx.interval_decisions")),
      approx_interval_width_(metrics_.GetHistogram("approx.interval_width")),
      approx_sample_size_(metrics_.GetHistogram("approx.sample_size")),
      ingest_base_hits_(metrics_.GetCounter("serve.ingest.base_hits")),
      ingest_delta_hits_(metrics_.GetCounter("serve.ingest.delta_hits")),
      queue_wait_(metrics_.GetHistogram("serve.queue_wait")),
      pool_(std::max<size_t>(1, options_.num_workers)) {
  for (QueryKind kind : {QueryKind::kKeyword, QueryKind::kJoin,
                         QueryKind::kUnion, QueryKind::kCorrelated}) {
    latency_by_kind_[KindIndex(kind)] = metrics_.GetHistogram(
        std::string("serve.latency.") + KindName(kind));
  }
  admission_limit_gauge_->Set(admission_->limit());
}

QueryService::QueryService(const ingest::LiveEngine* live, Options options)
    : QueryService(static_cast<const DiscoveryEngine*>(nullptr),
                   std::move(options)) {
  live_ = live;
}

QueryService::QueryService(const cluster::ClusterEngine* cluster,
                           Options options)
    : QueryService(static_cast<const DiscoveryEngine*>(nullptr),
                   std::move(options)) {
  cluster_ = cluster;
}

QueryService::~QueryService() = default;

Status QueryService::Validate(const QueryRequest& request) const {
  switch (request.kind) {
    case QueryKind::kKeyword:
      if (request.keyword.empty()) {
        return Status::InvalidArgument("keyword query requires text");
      }
      return Status::OK();
    case QueryKind::kJoin:
      if (request.values.empty()) {
        return Status::InvalidArgument("join query requires values");
      }
      if (request.error_budget >= 1) {
        return Status::InvalidArgument(
            "error budget must be below 1 (interval confidence is "
            "1 - budget)");
      }
      return Status::OK();
    case QueryKind::kUnion:
      if (request.union_table == nullptr) {
        return Status::InvalidArgument("union query requires a table");
      }
      return Status::OK();
    case QueryKind::kCorrelated:
      if (request.values.empty() || request.numeric_values.empty()) {
        return Status::InvalidArgument(
            "correlated query requires key values and a numeric column");
      }
      if (request.values.size() != request.numeric_values.size()) {
        return Status::InvalidArgument(StrFormat(
            "correlated query requires aligned columns: %zu key values vs "
            "%zu numeric values",
            request.values.size(), request.numeric_values.size()));
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown query kind");
}

std::string QueryService::ModalityName(const QueryRequest& request) {
  return ModalityNameFor(request.kind, request.join_method,
                         request.union_method);
}

uint64_t QueryService::CacheKey(const QueryRequest& request) const {
  uint64_t version = 0;
  if (cluster_ != nullptr) {
    version = cluster_->version();
  } else if (live_ != nullptr) {
    version = live_->version();
  }
  return CacheKeyWithVersion(request, version);
}

uint64_t QueryService::CacheKeyWithVersion(const QueryRequest& request,
                                           uint64_t version) const {
  uint64_t h = Hash64(static_cast<uint64_t>(request.kind), /*seed=*/3);
  h = HashCombine(h, epoch());
  // Live mode: every publish bumps the generation version, logically
  // invalidating all entries cached against the previous corpus.
  h = HashCombine(h, version);
  h = HashCombine(h, request.k);
  h = HashCombine(h, static_cast<uint64_t>(request.exclude));
  switch (request.kind) {
    case QueryKind::kKeyword:
      h = HashCombine(h, Hash64(request.keyword));
      break;
    case QueryKind::kJoin:
      h = HashCombine(h, static_cast<uint64_t>(request.join_method));
      h = HashCombine(h, HashValuesUnordered(request.values));
      if (request.join_method == JoinMethod::kApprox) {
        // Approximate answers at different budgets are different results;
        // the budget is canonicalized (<= 0 means the engine default) so
        // "default" spelled two ways shares one entry.
        const double eb =
            request.error_budget > 0 ? request.error_budget : 0.1;
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(eb));
        std::memcpy(&bits, &eb, sizeof(bits));
        h = HashCombine(h, bits);
      }
      break;
    case QueryKind::kUnion:
      h = HashCombine(h, static_cast<uint64_t>(request.union_method));
      h = HashCombine(h, HashTable(*request.union_table));
      if (!request.exclude_name.empty()) {
        h = HashCombine(h, Hash64(request.exclude_name, /*seed=*/7));
      }
      break;
    case QueryKind::kCorrelated:
      h = HashCombine(h, HashValuesUnordered(request.values));
      h = HashCombine(h, HashNumbers(request.numeric_values));
      break;
  }
  return h;
}

QueryService::Tiers QueryService::BuiltTiers(const ExecContext& ctx) {
  Tiers tiers;
  if (ctx.cluster != nullptr) {
    // All shards are built with the same options, so the build flags say
    // what indexes every shard carries.
    const DiscoveryEngine::Options& base =
        ctx.cluster->options().engine.base_options;
    tiers.approx_join = base.build_approx;
    tiers.tus = base.build_tus;
    tiers.lsh_join = base.build_lsh_join;
  } else {
    const DiscoveryEngine& base = ctx.gen->base();
    tiers.approx_join = base.approx_join() != nullptr;
    tiers.tus = base.tus() != nullptr;
    tiers.lsh_join = base.lsh_join() != nullptr;
  }
  return tiers;
}

std::shared_ptr<const ingest::Generation> QueryService::CurrentGeneration()
    const {
  return live_ != nullptr ? live_->Acquire() : frozen_;
}

void QueryService::RecordApproxStats(const approx::ApproxQueryStats& stats) {
  approx_estimates_->Add(stats.estimates);
  approx_exact_fallbacks_->Add(stats.exact_fallbacks);
  approx_interval_decisions_->Add(stats.interval_decisions);
  if (stats.interval_decisions > 0) {
    // Mean final width across this query's interval-settled candidates,
    // in basis points (width 0.05 records as 500).
    approx_interval_width_->Record(stats.sum_width /
                                   static_cast<double>(
                                       stats.interval_decisions) *
                                   1e4);
  }
  if (stats.decisions() > 0) {
    approx_sample_size_->Record(static_cast<double>(stats.sum_sample_size) /
                                static_cast<double>(stats.decisions()));
  }
}

Result<SubmittedQuery> QueryService::Submit(QueryRequest request) {
  LAKE_RETURN_IF_ERROR(Validate(request));

  // Door policy: while CoDel is dropping and a queue exists, refuse new
  // arrivals immediately — they would only age in a queue that is
  // already shedding at dequeue. The queue-non-empty gate keeps a
  // low-sojourn dequeue reachable so the dropping state can clear.
  if (admission_->dropping() && pending() > options_.num_workers) {
    queries_rejected_->Add();
    shed_codel_->Add();
    return Status::Overloaded("admission: shedding on queue delay");
  }
  switch (admission_->TryAdmit(request.priority)) {
    case AdmissionController::Decision::kAdmit:
      break;
    case AdmissionController::Decision::kShedBatch:
      queries_rejected_->Add();
      shed_batch_->Add();
      return Status::Overloaded("admission: batch headroom exhausted");
    case AdmissionController::Decision::kShedLimit:
      queries_rejected_->Add();
      shed_limit_->Add();
      return Status::Overloaded(
          "admission: adaptive concurrency limit reached");
  }
  queries_admitted_->Add();

  auto cancel = std::make_shared<CancelToken>();
  const auto admitted = Clock::now();
  if (request.deadline.has_value()) {
    cancel->SetDeadline(admitted + *request.deadline);
  } else if (options_.default_deadline.count() > 0) {
    cancel->SetDeadline(admitted + options_.default_deadline);
  }

  // Pin the engine snapshot and compute the cache key once, at admission:
  // a hit is answered from them right here, a miss carries them into its
  // pool task, so the key's version always matches the generation the
  // results come from (a publish racing with this query can make a
  // stale-but-correctly-keyed entry, never a mismatched one).
  ExecContext ctx;
  uint64_t version = 0;
  if (cluster_ != nullptr) {
    // Cluster mode pins no single generation (each shard pins its own at
    // scatter time); the cluster's topology/ingest version keys the cache
    // so any ApplyBatch or rebalance routes around stale entries.
    ctx.cluster = cluster_;
    version = cluster_->version();
  } else {
    ctx.gen = CurrentGeneration();
    version = ctx.gen->version();
  }

  // Approximate-tier routing, decided from the pinned context (so the
  // query executes on the engine it was routed for) and before the cache
  // key, so the key, the modality (breaker, latency histogram, failpoint
  // site) and the brownout plan all see the effective method.
  // require_exact_method pins the requested method, and a request that
  // already asks for kApprox needs no rewrite.
  if (request.kind == QueryKind::kJoin && request.approx_ok &&
      !request.require_exact_method &&
      request.join_method != JoinMethod::kApprox &&
      BuiltTiers(ctx).approx_join) {
    request.join_method = JoinMethod::kApprox;
  }

  std::optional<uint64_t> key;
  if (options_.enable_cache && !request.bypass_cache) {
    key = CacheKeyWithVersion(request, version);
  }

  // Cache hits complete on the submitting thread: a hash and a map probe
  // are far cheaper than two thread hand-offs. An already-expired query
  // skips the lookup (and counts no miss); Run fails it on the pool.
  if (key.has_value() && cancel->Check().ok()) {
    CachedResult hit;
    if (cache_.Lookup(*key, &hit)) {
      cache_hits_->Add();
      if (options_.pre_execute_hook) options_.pre_execute_hook(request);
      QueryResponse response;
      response.tables = std::move(hit.tables);
      response.columns = std::move(hit.columns);
      response.table_names = std::move(hit.table_names);
      response.shards = std::move(hit.shards);
      response.cache_hit = true;
      // Approx routing is decided at admission, so an entry under a
      // kApprox key can only hold an approximate answer (degraded results
      // are never cached) — the flag survives the cache.
      response.approx = request.kind == QueryKind::kJoin &&
                        request.join_method == JoinMethod::kApprox;
      std::promise<QueryResponse> done;
      done.set_value(Finish(request.kind, admitted, std::move(response)));
      return SubmittedQuery{done.get_future(), std::move(cancel)};
    }
    cache_misses_->Add();
  }

  std::future<QueryResponse> future = pool_.Async(
      [this, request = std::move(request), ctx = std::move(ctx), key, cancel,
       admitted]() {
        return Finish(request.kind, admitted,
                      Run(request, ctx, key, cancel.get(), admitted));
      });
  return SubmittedQuery{std::move(future), std::move(cancel)};
}

QueryResponse QueryService::Execute(QueryRequest request) {
  Result<SubmittedQuery> submitted = Submit(std::move(request));
  if (!submitted.ok()) {
    QueryResponse response;
    response.status = submitted.status();
    return response;
  }
  return submitted->response.get();
}

void QueryService::RecordMergeStats(const ingest::MergeStats& stats) {
  ingest_base_hits_->Add(stats.base_results);
  ingest_delta_hits_->Add(stats.delta_results);
}

QueryService::HealthSnapshot QueryService::Health() {
  HealthSnapshot health;
  health.admission_limit = admission_->limit();
  health.admission_in_flight = admission_->in_flight();

  const auto now = Clock::now();
  for (const auto& [name, breaker] : breakers_.All()) {
    BreakerStatus bs;
    bs.modality = name;
    bs.state = breaker->state(now);
    bs.failure_rate = breaker->failure_rate(now);
    bs.trips = breaker->trips();
    if (bs.state == CircuitBreaker::State::kOpen) ++health.open_breakers;
    breaker_state_gauges_->WithLabel(name)->Set(
        static_cast<uint64_t>(bs.state));
    health.breakers.push_back(std::move(bs));
  }

  if (live_ != nullptr) {
    // wal_status() exports its numbers here so operators see the live
    // loss window (unsynced acknowledged records) next to overload state;
    // the ingest.wal.unsynced_records gauge is refreshed alongside.
    const ingest::LiveEngine::WalStatus wal = live_->wal_status();
    health.wal_enabled = wal.enabled;
    health.wal_last_lsn = wal.last_lsn;
    health.wal_durable_lsn = wal.durable_lsn;
    health.wal_unsynced_records = wal.unsynced_records;
    metrics_.GetGauge("ingest.wal.unsynced_records")
        ->Set(wal.unsynced_records);
  }

  if (cluster_ != nullptr) {
    health.shards = cluster_->Health();
    for (const auto& shard : health.shards) {
      // A shard with no SERVING replica (alive, non-stale, breaker not
      // open — Pick's eligibility, not the bare alive_ flag) cannot answer
      // its partition: every query is at best partial until a replica is
      // revived, repaired, or its breaker closes.
      if (shard.replicas_serving == 0) health.degraded = true;
      health.stale_replicas += shard.replicas_stale;
      health.ejected_replicas += shard.replicas_ejected;
      if (!shard.digests_agree) health.replicas_divergent = true;
    }
    metrics_.GetGauge("serve.replica.stale.total")
        ->Set(health.stale_replicas);
    metrics_.GetGauge("serve.replica.ejected.total")
        ->Set(health.ejected_replicas);
  }

  health.ok = !health.degraded && health.open_breakers == 0;
  degraded_gauge_->Set(health.degraded ? 1 : 0);
  admission_limit_gauge_->Set(health.admission_limit);
  admission_in_flight_gauge_->Set(health.admission_in_flight);
  breakers_open_gauge_->Set(health.open_breakers);
  return health;
}

void QueryService::InvalidateCache() {
  epoch_.fetch_add(1, std::memory_order_relaxed);
  cache_.Clear();
}

std::optional<QueryService::Fallback> QueryService::FallbackFor(
    const QueryRequest& request, const ExecContext& ctx) const {
  // The survey's accuracy/latency pairs: the expensive high-recall method
  // falls back to the cheap sketch/embedding-average alternative, when
  // the pinned context says the engine(s) built it.
  const Tiers tiers = BuiltTiers(ctx);
  if (request.kind == QueryKind::kUnion &&
      request.union_method == UnionMethod::kStarmie && tiers.tus) {
    return Fallback{request.join_method, UnionMethod::kTus, "union.tus",
                    brownout_union_};
  }
  if (request.kind == QueryKind::kJoin &&
      request.join_method == JoinMethod::kJosie) {
    // The sampling tier is the preferred brownout for exact top-k overlap:
    // same ranking measure, an interval on every answer, and exact
    // fallback only where the interval cannot settle the top-k. The LSH
    // sketch tier remains for engines built without it.
    if (tiers.approx_join) {
      return Fallback{JoinMethod::kApprox, request.union_method,
                      "join.approx", brownout_join_};
    }
    if (tiers.lsh_join) {
      return Fallback{JoinMethod::kLshEnsemble, request.union_method,
                      "join.lsh_ensemble", brownout_join_};
    }
  }
  // kApprox itself is the floor of the join tier ladder: no fallback.
  return std::nullopt;
}

void QueryService::ExecuteCluster(const QueryRequest& request,
                                  JoinMethod join_method,
                                  UnionMethod union_method,
                                  const CancelToken* cancel,
                                  QueryResponse* response) {
  // Scatter-gather to all shards. A slow or dead shard yields a partial
  // answer flagged degraded (and therefore never cached) rather than a
  // hung query; the surviving hits carry (shard, stable name) provenance.
  auto take_tables = [&](cluster::TableQueryResponse r) {
    response->status = r.status;
    response->degraded |= r.degraded;
    response->missing_shards = std::move(r.missing_shards);
    for (const cluster::TableHit& h : r.hits) {
      response->tables.push_back(TableResult{h.local_id, h.score, h.why});
      response->table_names.push_back(h.table);
      response->shards.push_back(h.shard);
    }
  };
  auto take_columns = [&](cluster::ColumnQueryResponse r) {
    response->status = r.status;
    response->degraded |= r.degraded;
    response->missing_shards = std::move(r.missing_shards);
    for (const cluster::ColumnHit& h : r.hits) {
      response->columns.push_back(ColumnResult{
          ColumnRef{h.local_id, static_cast<uint32_t>(h.column_index)},
          h.score, h.why});
      response->table_names.push_back(h.table);
      response->shards.push_back(h.shard);
    }
  };
  switch (request.kind) {
    case QueryKind::kKeyword:
      take_tables(cluster_->Keyword(request.keyword, request.k, cancel));
      break;
    case QueryKind::kJoin:
      take_columns(cluster_->Joinable(request.values, join_method, request.k,
                                      cancel, request.error_budget));
      break;
    case QueryKind::kUnion:
      take_tables(cluster_->Unionable(*request.union_table, union_method,
                                      request.k, request.exclude_name,
                                      cancel));
      break;
    case QueryKind::kCorrelated:
      take_columns(cluster_->Correlated(request.values, request.numeric_values,
                                        request.k, cancel));
      break;
  }
}

void QueryService::ExecuteEngine(const QueryRequest& request,
                                 JoinMethod join_method,
                                 UnionMethod union_method,
                                 const std::string& modality,
                                 const ExecContext& ctx,
                                 const CancelToken* cancel,
                                 QueryResponse* response) {
  const auto exec_start = Clock::now();
  response->served_by = modality;
  approx::ApproxQueryStats approx_stats;

  // Chaos-test fault site: a hung (kDelay) or erroring dependency for
  // exactly this (kind, method) modality.
  const Status injected = ExecFailpoint("serve.exec." + modality, cancel);
  if (!injected.ok()) {
    response->status = injected;
  } else if (ctx.cluster != nullptr) {
    ExecuteCluster(request, join_method, union_method, cancel, response);
  } else {
    // One read path for every kind and both single-engine modes: the
    // pinned generation's base+delta merge.
    ingest::MergeStats merge;
    auto take = [response](auto result, auto* out) {
      if (result.ok()) {
        *out = std::move(result).value();
      } else {
        response->status = result.status();
      }
    };
    switch (request.kind) {
      case QueryKind::kKeyword:
        response->tables = ingest::MergedKeyword(*ctx.gen, request.keyword,
                                                 request.k, &merge);
        break;
      case QueryKind::kJoin:
        take(ingest::MergedJoinable(
                 *ctx.gen, request.values, join_method, request.k, cancel,
                 &merge, request.error_budget,
                 join_method == JoinMethod::kApprox ? &approx_stats : nullptr),
             &response->columns);
        break;
      case QueryKind::kUnion:
        take(ingest::MergedUnionable(*ctx.gen, *request.union_table,
                                     union_method, request.k, request.exclude,
                                     cancel, &merge),
             &response->tables);
        break;
      case QueryKind::kCorrelated:
        take(ingest::MergedCorrelated(*ctx.gen, request.values,
                                      request.numeric_values, request.k,
                                      cancel, &merge),
             &response->columns);
        break;
    }
    if (response->status.ok()) RecordMergeStats(merge);
  }

  // An answer from the sampling tier is flagged so consumers know every
  // score carries an interval (and the cluster path, which cannot thread
  // per-shard estimator stats back, still counts the query).
  if (request.kind == QueryKind::kJoin &&
      join_method == JoinMethod::kApprox && response->status.ok()) {
    response->approx = true;
    approx_queries_->Add();
    RecordApproxStats(approx_stats);
  }

  // Execution-only latency (excludes queue wait); its upper quantiles
  // drive the brownout budget check for this modality.
  metrics_.GetHistogram("serve.exec." + modality)
      ->Record(std::chrono::duration<double, std::micro>(Clock::now() -
                                                         exec_start)
                   .count());
}

void QueryService::ExecutePlan(const QueryRequest& request,
                               const ExecContext& ctx,
                               const CancelToken* cancel,
                               QueryResponse* response) {
  const std::string primary = ModalityName(request);
  CircuitBreaker* breaker =
      options_.enable_breakers ? breakers_.Get(primary) : nullptr;
  const CircuitBreaker::Permit permit =
      breaker != nullptr ? breaker->Allow(Clock::now())
                         : CircuitBreaker::Permit::kAllowed;

  std::optional<Fallback> fallback = FallbackFor(request, ctx);
  if (!options_.enable_brownout || request.require_exact_method) {
    fallback.reset();
  }

  // Serve the query with the cheaper method and flag it degraded. Returns
  // false when there is no fallback or its own breaker refuses.
  auto run_fallback = [&]() {
    if (!fallback.has_value()) return false;
    CircuitBreaker* fb =
        options_.enable_breakers ? breakers_.Get(fallback->modality) : nullptr;
    const CircuitBreaker::Permit fpermit =
        fb != nullptr ? fb->Allow(Clock::now())
                      : CircuitBreaker::Permit::kAllowed;
    if (fpermit == CircuitBreaker::Permit::kDenied) return false;
    QueryResponse alt;
    ExecuteEngine(request, fallback->join_method, fallback->union_method,
                  fallback->modality, ctx, cancel, &alt);
    RecordOutcome(fb, alt.status, Clock::now());
    response->status = alt.status;
    response->tables = std::move(alt.tables);
    response->columns = std::move(alt.columns);
    response->table_names = std::move(alt.table_names);
    response->shards = std::move(alt.shards);
    response->missing_shards = std::move(alt.missing_shards);
    response->served_by = std::move(alt.served_by);
    response->approx = alt.approx;
    response->degraded = true;
    brownout_total_->Add();
    if (fallback->counter != nullptr) fallback->counter->Add();
    return true;
  };

  if (permit == CircuitBreaker::Permit::kDenied) {
    breaker_fast_fail_->Add();
    if (!run_fallback()) {
      response->status =
          Status::Unavailable("circuit breaker open for " + primary);
    }
    return;
  }

  // Budget brownout, only from the closed state (a granted half-open
  // probe must execute the primary so the breaker can learn): when the
  // remaining deadline budget is below the method's tracked upper
  // quantile, don't even start the expensive method.
  if (permit == CircuitBreaker::Permit::kAllowed && fallback.has_value() &&
      cancel->has_deadline()) {
    LatencyHistogram* hist = metrics_.GetHistogram("serve.exec." + primary);
    if (hist->count() >= kBrownoutMinSamples) {
      const double budget_us =
          std::chrono::duration<double, std::micro>(cancel->Remaining())
              .count();
      if (budget_us < hist->Percentile(kBrownoutQuantile) &&
          run_fallback()) {
        return;
      }
    }
  }

  ExecuteEngine(request, request.join_method, request.union_method, primary,
                ctx, cancel, response);
  RecordOutcome(breaker, response->status, Clock::now());

  // Failure brownout: the primary failed for a breaker-worthy reason
  // (hung past a timeout, internal error, unbuilt index) and there is
  // budget left — answer with the cheap method rather than the error.
  if (CircuitBreaker::IsFailure(response->status) &&
      cancel->Remaining() > std::chrono::nanoseconds::zero()) {
    QueryResponse failed = std::move(*response);
    *response = QueryResponse{};
    if (!run_fallback()) *response = std::move(failed);
  }
}

QueryResponse QueryService::Run(const QueryRequest& request,
                                const ExecContext& ctx,
                                std::optional<uint64_t> key,
                                const CancelToken* cancel,
                                Clock::time_point admitted) {
  const auto started = Clock::now();
  const auto sojourn = started - admitted;
  queue_wait_->Record(
      std::chrono::duration<double, std::micro>(sojourn).count());

  if (options_.pre_execute_hook) options_.pre_execute_hook(request);

  QueryResponse response;

  // CoDel shed at dequeue: persistent queue sojourn above target means
  // queued work is dying of old age — fail it fast instead of executing.
  if (admission_->ShouldDrop(request.priority, sojourn, started)) {
    shed_codel_->Add();
    response.status =
        Status::Overloaded("shed at dequeue: queue sojourn over CoDel target");
    return response;
  }

  // A query that spent its whole budget queued fails before touching the
  // engine.
  response.status = cancel->Check();
  if (!response.status.ok()) return response;

  ExecutePlan(request, ctx, cancel, &response);
  // A query that expired mid-execution must not populate the cache (the
  // engine may have unwound with partial work), and a degraded brownout
  // answer must not shadow the full-quality method's entry.
  if (response.status.ok() && key.has_value() && !response.degraded &&
      cancel->Check().ok()) {
    cache_.Insert(*key, CachedResult{response.tables, response.columns,
                                     response.table_names, response.shards});
  }
  return response;
}

QueryResponse QueryService::Finish(QueryKind kind, Clock::time_point admitted,
                                   QueryResponse response) {
  switch (response.status.code()) {
    case StatusCode::kOk:
      break;
    case StatusCode::kDeadlineExceeded:
      queries_deadline_exceeded_->Add();
      break;
    case StatusCode::kCancelled:
      queries_cancelled_->Add();
      break;
    case StatusCode::kFailedPrecondition:
    case StatusCode::kUnavailable:
      queries_unavailable_->Add();
      break;
    case StatusCode::kOverloaded:
      break;  // counted at the shed site
    default:
      queries_failed_->Add();
      break;
  }

  const auto finished = Clock::now();
  response.latency_ms =
      std::chrono::duration<double, std::milli>(finished - admitted).count();
  latency_by_kind_[KindIndex(kind)]->Record(
      std::chrono::duration<double, std::micro>(finished - admitted).count());

  // AIMD feedback: deadline death and CoDel sheds force the decrease
  // path; cancellation is the caller's choice and teaches nothing.
  if (response.status.code() != StatusCode::kCancelled) {
    const bool congested =
        response.status.code() == StatusCode::kDeadlineExceeded ||
        response.status.code() == StatusCode::kOverloaded;
    admission_->OnCompletion(response.latency_ms, congested, finished);
    admission_limit_gauge_->Set(admission_->limit());
  }
  admission_->Release();
  return response;
}

}  // namespace lake::serve
