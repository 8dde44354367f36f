#include "cluster/cluster_engine.h"

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "cluster/scrubber.h"
#include "cluster/topk_merge.h"
#include "ingest/generation.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace lake::cluster {
namespace {

using Clock = ClusterEngine::Clock;

std::string FailpointName(uint32_t shard, size_t replica) {
  return "cluster.exec." + std::to_string(shard) + "." +
         std::to_string(replica);
}

serve::Counter* CounterOrNull(serve::MetricsRegistry* metrics,
                              const std::string& name) {
  return metrics == nullptr ? nullptr : metrics->GetCounter(name);
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One shard's contribution to a scattered query.
template <typename Answer>
struct ShardOutcome {
  uint32_t shard = 0;
  Status status;
  Answer answer{};
  ShardTrace trace;
};

/// Runs one attempt against a routed replica and settles its breaker +
/// latency accounting with the serving layer's failure taxonomy: success
/// and infrastructure failures feed the breakers and the latency window;
/// any other outcome records neutrally, so it always frees a probe slot
/// (a hedge loser's unwind time is not a service-latency sample, and the
/// caller's cancellation or bad request is not the replica's fault).
template <typename Answer, typename ShardFn>
Status RunAttempt(ReplicaSet& rs, const ReplicaSet::Route& route,
                  const CancelToken* cancel, const ShardFn& fn,
                  Answer* answer) {
  const Clock::time_point t0 = Clock::now();
  Status st = ExecFailpoint(FailpointName(rs.shard_id(), route.replica),
                            cancel);
  if (st.ok()) {
    Result<Answer> r = fn(*route.engine, cancel, rs.shard_id());
    st = r.ok() ? Status::OK() : r.status();
    if (r.ok()) *answer = std::move(r).value();
  }
  const auto now = ReplicaSet::Clock::now();
  const double latency_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  if (st.ok() || serve::CircuitBreaker::IsFailure(st)) {
    rs.RecordOutcome(route.replica, st.ok(), now, latency_us);
  } else {
    rs.RecordNeutral(route.replica, now);
  }
  return st;
}

/// Shared state of one hedged attempt: the primary runs on the hedge pool
/// against its own CancelToken and parks its result here; the shard
/// worker either consumes it or, once the hedge wins, cancels it. The
/// race owns everything the primary touches except the ReplicaSet (whose
/// shared_ptr the primary lambda holds), so an abandoned primary finishes
/// harmlessly after the query has returned.
template <typename Answer>
struct HedgeRace {
  std::mutex mu;
  std::condition_variable cv;
  CancelToken token;  // the primary's private token
  bool done = false;
  Status status;
  Answer answer{};
};

/// Whether the first attempt of this sub-query should be hedged, and with
/// what delay. The delay is the primary's tracked `hedge_quantile`
/// latency clamped to [hedge_min_delay, hedge_max_delay]; with too few
/// samples it is hedge_max_delay (pessimistic: a cold replica earns no
/// early duplicates). Never hedge when the remaining deadline budget is
/// below the delay — the duplicate could not beat the deadline anyway.
bool HedgeEligible(const ReplicaSet& rs, const TailContext& tail,
                   const ReplicaSet::Route& route, const CancelToken* cancel,
                   std::chrono::nanoseconds* delay) {
  if (tail.hedge_pool == nullptr || rs.num_replicas() < 2) return false;
  const auto now = ReplicaSet::Clock::now();
  std::chrono::nanoseconds d = tail.hedge_max_delay;
  if (rs.LatencySamples(route.replica, now) >= tail.hedge_min_samples) {
    const double p_us =
        rs.LatencyQuantile(route.replica, tail.hedge_quantile, now);
    d = std::clamp(
        std::chrono::nanoseconds(static_cast<int64_t>(p_us * 1000.0)),
        tail.hedge_min_delay, tail.hedge_max_delay);
  }
  if (cancel != nullptr && cancel->has_deadline() && cancel->Remaining() <= d) {
    return false;
  }
  *delay = d;
  return true;
}

/// One hedged first attempt. The primary runs on the hedge pool; if it
/// has not answered within `hedge_delay`, the same read-only sub-query is
/// dispatched to a sibling replica (budget permitting) on the calling
/// shard worker. First successful response wins; the loser is cancelled
/// via its CancelToken. Both attempts record their own breaker/latency
/// outcomes, so the losing replica's slowness still lands in its window —
/// that is what the ejection machinery feeds on.
template <typename Answer, typename ShardFn>
Status RunHedgedAttempt(const std::shared_ptr<ReplicaSet>& rs,
                        const TailContext& tail,
                        std::chrono::nanoseconds hedge_delay,
                        const CancelToken* cancel, const ShardFn& fn,
                        const ReplicaSet::Route& primary, Answer* answer,
                        ShardTrace* trace) {
  auto race = std::make_shared<HedgeRace<Answer>>();
  if (cancel != nullptr && cancel->has_deadline()) {
    race->token.SetDeadline(Clock::now() + cancel->Remaining());
  }
  if (cancel != nullptr && cancel->cancelled()) race->token.Cancel();
  tail.hedge_pool->Async([race, rs, primary, fn] {
    Answer ans{};
    const Status st = RunAttempt(*rs, primary, &race->token, fn, &ans);
    {
      std::lock_guard<std::mutex> lock(race->mu);
      race->done = true;
      race->status = st;
      race->answer = std::move(ans);
    }
    race->cv.notify_all();
  });

  // Waits for the primary until `until`, propagating the caller's
  // cancellation/deadline into the primary's token as it goes.
  auto wait_until = [&](Clock::time_point until) {
    std::unique_lock<std::mutex> lock(race->mu);
    while (!race->done && Clock::now() < until) {
      if (cancel != nullptr && (cancel->cancelled() || cancel->Expired())) {
        race->token.Cancel();
      }
      race->cv.wait_for(lock, std::chrono::milliseconds(10),
                        [&] { return race->done; });
    }
    return race->done;
  };
  auto consume_primary = [&]() {
    std::lock_guard<std::mutex> lock(race->mu);
    *answer = std::move(race->answer);
    return race->status;
  };

  if (wait_until(Clock::now() + hedge_delay)) return consume_primary();

  // Primary is slow: hedge, if the budget and a sibling permit.
  ReplicaSet::Route sibling;
  const auto pick_now = ReplicaSet::Clock::now();
  if (tail.budget->TryAcquire(pick_now)) {
    if (rs->Pick(pick_now, primary.replica, &sibling)) {
      trace->hedged = true;
      tail.hedges_dispatched->fetch_add(1, std::memory_order_relaxed);
      if (tail.hedge_counter != nullptr) tail.hedge_counter->Add();
      CancelToken hedge_token;
      if (cancel != nullptr && cancel->has_deadline()) {
        hedge_token.SetDeadline(Clock::now() + cancel->Remaining());
      }
      Answer hedge_answer{};
      const Status hedge_status =
          RunAttempt(*rs, sibling, &hedge_token, fn, &hedge_answer);
      if (hedge_status.ok()) {
        // First response wins. If the primary finished OK while the hedge
        // ran, it already won the race; results are bit-identical either
        // way (same generation-pinned read over content-equal replicas),
        // only the accounting differs.
        std::unique_lock<std::mutex> lock(race->mu);
        if (race->done && race->status.ok()) {
          *answer = std::move(race->answer);
          return race->status;
        }
        race->token.Cancel();  // the losing primary unwinds at its next poll
        lock.unlock();
        tail.hedges_won->fetch_add(1, std::memory_order_relaxed);
        if (tail.hedge_win_counter != nullptr) tail.hedge_win_counter->Add();
        trace->hedge_won = true;
        trace->replica = sibling.replica;
        *answer = std::move(hedge_answer);
        return Status::OK();
      }
      // Hedge lost (error or cancellation): fall through and collect the
      // primary, which may still answer.
    }
  } else if (tail.budget_denied_counter != nullptr) {
    tail.budget_denied_counter->Add();
  }

  Clock::time_point until = Clock::time_point::max();
  if (cancel != nullptr && cancel->has_deadline()) {
    until = Clock::now() + cancel->Remaining();
  }
  bool done = wait_until(until);
  if (!done) {
    race->token.Cancel();
    done = wait_until(Clock::now() + std::chrono::milliseconds(250));
  }
  if (!done) {
    // Abandon the primary; it finishes into the race it owns.
    return Status::DeadlineExceeded("shard " + std::to_string(rs->shard_id()) +
                                    ": hedged primary exceeded its deadline");
  }
  return consume_primary();
}

/// Runs `fn` against one replica of `rs`, failing over to a sibling on an
/// infrastructure error (up to `max_attempts` total attempts). Each attempt
/// passes through the per-replica failpoint — the chaos-injection surface.
/// Tail tolerance hooks in at two points: every failover retry (attempt
/// > 0) draws from the shared retry/hedge budget and silently degrades —
/// exactly like an exhausted loop — when the budget refuses; and the first
/// attempt of a read is hedged when enabled (see RunHedgedAttempt).
/// Mutations never reach this path (ApplyBatch has its own quorum plan).
template <typename Answer, typename ShardFn>
void RunShardWithFailover(const std::shared_ptr<ReplicaSet>& rs,
                          const TailContext& tail, size_t max_attempts,
                          const CancelToken* cancel, const ShardFn& fn,
                          ShardOutcome<Answer>* out) {
  size_t exclude = std::numeric_limits<size_t>::max();
  out->status = Status::Unavailable("shard " + std::to_string(rs->shard_id()) +
                                    ": no live replica admits the call");
  out->trace.status = out->status;
  tail.budget->RecordRequest(RetryBudget::Clock::now());
  for (size_t attempt = 0; attempt < std::max<size_t>(1, max_attempts);
       ++attempt) {
    if (attempt > 0 && !tail.budget->TryAcquire(RetryBudget::Clock::now())) {
      if (tail.budget_denied_counter != nullptr) {
        tail.budget_denied_counter->Add();
      }
      return;  // degrade exactly as an exhausted failover loop does
    }
    ReplicaSet::Route route;
    if (!rs->Pick(ReplicaSet::Clock::now(), exclude, &route)) return;
    ++out->trace.attempts;
    out->trace.replica = route.replica;

    Status st;
    std::chrono::nanoseconds hedge_delay{0};
    if (attempt == 0 && HedgeEligible(*rs, tail, route, cancel, &hedge_delay)) {
      st = RunHedgedAttempt(rs, tail, hedge_delay, cancel, fn, route,
                            &out->answer, &out->trace);
    } else {
      st = RunAttempt(*rs, route, cancel, fn, &out->answer);
    }
    out->status = st;
    out->trace.status = st;
    if (st.ok()) return;
    if (st.code() == StatusCode::kCancelled) return;  // caller's doing
    exclude = out->trace.replica;
  }
}

/// Fans `fn` out to every shard on the pool and gathers the per-shard
/// outcomes. Each shard gets its own CancelToken whose deadline is the
/// tighter of the caller's remaining budget and `shard_deadline`; a shard
/// that overruns is cancelled, given a short grace to unwind at its next
/// polling point, and then abandoned — the gather returns without it
/// (partial results), never hangs on it. Abandoned tasks own everything
/// they touch (ReplicaSet shared_ptr, token, a copy of `fn`), so they can
/// finish harmlessly after the query has returned.
template <typename Answer, typename ShardFn>
std::vector<ShardOutcome<Answer>> ScatterToShards(
    ThreadPool& pool, const std::vector<std::shared_ptr<ReplicaSet>>& shards,
    const TailContext& tail, size_t max_attempts,
    std::chrono::milliseconds shard_deadline, const CancelToken* cancel,
    const ShardFn& fn) {
  const Clock::time_point start = Clock::now();
  Clock::time_point deadline = Clock::time_point::max();
  bool has_deadline = false;
  if (cancel != nullptr && cancel->has_deadline()) {
    deadline =
        start + std::chrono::duration_cast<Clock::duration>(cancel->Remaining());
    has_deadline = true;
  }
  if (shard_deadline.count() > 0) {
    const Clock::time_point d = start + shard_deadline;
    deadline = has_deadline ? std::min(deadline, d) : d;
    has_deadline = true;
  }

  struct Pending {
    uint32_t shard;
    std::shared_ptr<CancelToken> token;
    std::future<ShardOutcome<Answer>> future;
  };
  std::vector<Pending> pending;
  pending.reserve(shards.size());
  for (const std::shared_ptr<ReplicaSet>& rs : shards) {
    auto token = std::make_shared<CancelToken>();
    if (has_deadline) token->SetDeadline(deadline);
    const bool cancelled_upstream = cancel != nullptr && cancel->cancelled();
    if (cancelled_upstream) token->Cancel();
    auto future =
        pool.Async([set = rs, token, tail = &tail, max_attempts, fn]() {
          ShardOutcome<Answer> out;
          out.shard = set->shard_id();
          out.trace.shard = set->shard_id();
          const Clock::time_point t0 = Clock::now();
          RunShardWithFailover(set, *tail, max_attempts, token.get(), fn,
                               &out);
          out.trace.latency_ms = MsSince(t0);
          return out;
        });
    pending.push_back(Pending{rs->shard_id(), std::move(token),
                              std::move(future)});
  }

  std::vector<ShardOutcome<Answer>> outcomes;
  outcomes.reserve(pending.size());
  for (Pending& p : pending) {
    bool ready = true;
    if (has_deadline &&
        p.future.wait_until(deadline) != std::future_status::ready) {
      p.token->Cancel();
      ready = p.future.wait_for(std::chrono::milliseconds(250)) ==
              std::future_status::ready;
    }
    if (!ready) {
      ShardOutcome<Answer> timed_out;
      timed_out.shard = p.shard;
      timed_out.status = Status::DeadlineExceeded(
          "shard " + std::to_string(p.shard) +
          " exceeded its deadline budget");
      timed_out.trace.shard = p.shard;
      timed_out.trace.status = timed_out.status;
      timed_out.trace.latency_ms = MsSince(start);
      outcomes.push_back(std::move(timed_out));
      continue;
    }
    outcomes.push_back(p.future.get());
  }
  return outcomes;
}

// --- Hit mapping and merge glue -----------------------------------------

struct TableAnswer {
  std::vector<TableHit> hits;
  size_t delta_hits = 0;
};
struct ColumnAnswer {
  std::vector<ColumnHit> hits;
  size_t delta_hits = 0;
};

std::vector<TableHit> ToTableHits(const ingest::Generation& gen,
                                  uint32_t shard,
                                  const std::vector<TableResult>& results) {
  std::vector<TableHit> hits;
  hits.reserve(results.size());
  for (const TableResult& r : results) {
    Result<std::string> name = gen.TableName(r.table_id);
    if (!name.ok()) continue;
    hits.push_back(
        TableHit{std::move(name).value(), r.score, r.why, shard, r.table_id});
  }
  return hits;
}

std::vector<ColumnHit> ToColumnHits(const ingest::Generation& gen,
                                    uint32_t shard,
                                    const std::vector<ColumnResult>& results) {
  std::vector<ColumnHit> hits;
  hits.reserve(results.size());
  for (const ColumnResult& r : results) {
    Result<std::string> name = gen.TableName(r.column.table_id);
    if (!name.ok()) continue;
    hits.push_back(ColumnHit{std::move(name).value(), r.column.column_index,
                             r.score, r.why, shard, r.column.table_id});
  }
  return hits;
}

/// Deterministic cross-shard tie order: equal scores break by table name
/// (and column index), never by which shard answered first. This is what
/// makes the merged ranking independent of the partitioning.
bool HitTieLess(const TableHit& a, const TableHit& b) {
  return a.table < b.table;
}
bool HitTieLess(const ColumnHit& a, const ColumnHit& b) {
  if (a.table != b.table) return a.table < b.table;
  return a.column_index < b.column_index;
}

std::string HitKey(const TableHit& h) { return h.table; }
std::string HitKey(const ColumnHit& h) {
  return h.table + "\x1f" + std::to_string(h.column_index);
}

/// Merges per-shard outcomes into one response: N-way ranked merge, then
/// dedup by table identity (keep-first — during a rebalance hand-off a
/// moved table can briefly answer from two shards with identical scores),
/// then cut to k. Failed shards become missing-shard provenance and flip
/// `degraded`; only a total wipeout turns into an error status.
template <typename Hit, typename Answer>
ScatterResponse<Hit> BuildResponse(std::vector<ShardOutcome<Answer>> outcomes,
                                   size_t k) {
  ScatterResponse<Hit> resp;
  std::vector<std::vector<Hit>> lists;
  Status first_error;
  size_t failed = 0;
  for (ShardOutcome<Answer>& o : outcomes) {
    o.trace.results = o.answer.hits.size();
    resp.traces.push_back(o.trace);
    if (o.status.ok()) {
      lists.push_back(std::move(o.answer.hits));
    } else {
      ++failed;
      resp.degraded = true;
      resp.missing_shards.push_back(o.shard);
      if (first_error.ok()) first_error = o.status;
    }
  }
  std::sort(resp.missing_shards.begin(), resp.missing_shards.end());
  if (!outcomes.empty() && failed == outcomes.size()) {
    resp.status = first_error;
    return resp;
  }
  // Merge unbounded, dedup, then cut: a duplicate inside the first k must
  // not evict a distinct hit just past it.
  std::vector<Hit> merged = MergeRankedTopK(
      std::move(lists), std::numeric_limits<size_t>::max(),
      [](const Hit& a, const Hit& b) { return HitTieLess(a, b); });
  std::unordered_set<std::string> seen;
  seen.reserve(merged.size());
  resp.hits.reserve(std::min(k, merged.size()));
  for (Hit& h : merged) {
    if (!seen.insert(HitKey(h)).second) continue;
    resp.hits.push_back(std::move(h));
    if (resp.hits.size() >= k) break;
  }
  return resp;
}

template <typename Answer>
void RecordScatterMetrics(const ScatterMetrics& m,
                          const std::vector<ShardOutcome<Answer>>& outcomes) {
  if (m.total != nullptr) m.total->Add();
  bool degraded = false;
  for (const ShardOutcome<Answer>& o : outcomes) {
    if (m.shard_queries != nullptr) m.shard_queries->WithLabel(o.shard)->Add();
    const size_t retries = o.trace.attempts > 1 ? o.trace.attempts - 1 : 0;
    if (retries > 0) {
      if (m.failovers != nullptr) m.failovers->Add(retries);
      if (m.shard_failovers != nullptr) {
        m.shard_failovers->WithLabel(o.shard)->Add(retries);
      }
    }
    if (!o.status.ok()) {
      degraded = true;
      if (m.shard_missing != nullptr) m.shard_missing->WithLabel(o.shard)->Add();
    } else if (m.shard_delta_hits != nullptr && o.answer.delta_hits > 0) {
      m.shard_delta_hits->WithLabel(o.shard)->Add(o.answer.delta_hits);
    }
  }
  if (degraded && m.degraded != nullptr) m.degraded->Add();
}

bool ParseIndexSuffix(const std::string& name, const std::string& prefix,
                      uint32_t* out) {
  if (name.size() <= prefix.size() || name.rfind(prefix, 0) != 0) return false;
  uint32_t value = 0;
  for (size_t i = prefix.size(); i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint32_t>(c - '0');
  }
  *out = value;
  return true;
}

/// Marker file RemoveShard leaves in a retired shard's store directory so
/// Recover never resurrects it with stale content.
constexpr const char* kRetiredMarker = "RETIRED";

/// True when one replica directory holds any recoverable state: a snapshot
/// envelope or a WAL segment. A replica that was constructed but never
/// checkpointed (an AddShard that died before its first checkpoint) has
/// neither — WAL segments are created lazily on first append.
bool ReplicaDirHasData(const std::filesystem::path& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (e.path().filename().string().rfind("snap-", 0) == 0) return true;
  }
  const fs::path wal = dir / "wal";
  if (fs::is_directory(wal, ec)) {
    for (const fs::directory_entry& e : fs::directory_iterator(wal, ec)) {
      if (e.path().filename().string().rfind("wal-", 0) == 0) return true;
    }
  }
  return false;
}

}  // namespace

// --- Construction --------------------------------------------------------

ReplicaSet* ClusterEngine::Topology::Find(uint32_t shard_id) const {
  for (const std::shared_ptr<ReplicaSet>& rs : shards) {
    if (rs->shard_id() == shard_id) return rs.get();
  }
  return nullptr;
}

ClusterEngine::ClusterEngine(Options options)
    : options_(std::move(options)),
      retry_budget_(std::make_unique<RetryBudget>(RetryBudget::Options{
          .ratio = options_.tail.budget_ratio,
          .min_tokens = options_.tail.budget_min_tokens,
          .window_slices = options_.tail.budget_window_slices,
          .slice_width = options_.tail.budget_slice_width})),
      // Hedged primaries run here, one slot per shard: even with every
      // scatter worker blocked in a hedge wait, the primaries make progress.
      hedge_pool_(options_.tail.enable_hedging
                      ? std::make_unique<ThreadPool>(
                            std::max<size_t>(2, options_.num_shards))
                      : nullptr),
      tail_{.budget = retry_budget_.get(),
            .hedge_pool = hedge_pool_.get(),
            .hedge_quantile = options_.tail.hedge_quantile,
            .hedge_min_delay = options_.tail.hedge_min_delay,
            .hedge_max_delay = options_.tail.hedge_max_delay,
            .hedge_min_samples = options_.tail.hedge_min_samples,
            .hedges_dispatched = &hedges_dispatched_,
            .hedges_won = &hedges_won_,
            .hedge_counter =
                CounterOrNull(options_.metrics, "cluster.tail.hedges"),
            .hedge_win_counter =
                CounterOrNull(options_.metrics, "cluster.tail.hedge_wins"),
            .budget_denied_counter =
                CounterOrNull(options_.metrics, "cluster.tail.budget_denied")} {
  options_.num_shards = std::max<size_t>(1, options_.num_shards);
  options_.num_replicas = std::max<size_t>(1, options_.num_replicas);
  options_.max_failover_attempts =
      std::max<size_t>(1, options_.max_failover_attempts);
  const size_t workers =
      options_.num_workers > 0 ? options_.num_workers : options_.num_shards;
  pool_ = std::make_unique<ThreadPool>(workers);
  InitMetrics();
}

ClusterEngine::ClusterEngine(const DataLakeCatalog& lake, Options options)
    : ClusterEngine(std::move(options)) {
  const size_t n = options_.num_shards;
  auto topo = std::make_shared<Topology>();
  topo->ring = HashRing(options_.ring);
  for (uint32_t s = 0; s < n; ++s) topo->ring.AddShard(s);
  next_shard_id_ = static_cast<uint32_t>(n);

  // Partition the lake by ring owner. Each slice is sorted by name before
  // indexing — the same invariant a compacted single-node base keeps — so
  // shard builds are deterministic functions of their content.
  std::vector<std::vector<TableId>> slices(n);
  for (TableId id : lake.AllTables()) {
    slices[topo->ring.OwnerOf(lake.table(id).name())].push_back(id);
  }
  std::vector<std::shared_ptr<const DataLakeCatalog>> catalogs(n);
  for (size_t s = 0; s < n; ++s) {
    std::sort(slices[s].begin(), slices[s].end(),
              [&lake](TableId a, TableId b) {
                return lake.table(a).name() < lake.table(b).name();
              });
    auto catalog = std::make_shared<DataLakeCatalog>();
    for (TableId id : slices[s]) catalog->AddTable(lake.table(id));
    catalogs[s] = std::move(catalog);
  }

  // Store/option wiring is serial (it mutates stores_); the expensive
  // per-shard index builds run in parallel on the pool.
  std::vector<ReplicaSet::Options> replica_options;
  replica_options.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    replica_options.push_back(ReplicaOptions(s));
  }
  topo->shards.resize(n);
  pool_->ParallelFor(n, [&](size_t s) {
    topo->shards[s] = std::make_shared<ReplicaSet>(
        static_cast<uint32_t>(s), catalogs[s],
        std::move(replica_options[s]));
  });
  Publish(std::move(topo));
  StartScrubber();
}

ClusterEngine::~ClusterEngine() {
  // Stop the scrub thread before the topology/pool it walks goes away.
  if (scrubber_ != nullptr) scrubber_->Stop();
}

void ClusterEngine::StartScrubber() {
  if (!options_.enable_scrubber) return;
  Scrubber::Options so;
  so.poll_interval_ms = options_.scrub_interval_ms;
  scrubber_ = std::make_unique<Scrubber>(this, so);
}

void ClusterEngine::Publish(std::shared_ptr<const Topology> topo) {
  topology_.store(std::move(topo), std::memory_order_release);
}

store::SnapshotStore* ClusterEngine::StoreFor(uint32_t shard, size_t replica) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(options_.store_root) /
                       ("shard-" + std::to_string(shard)) /
                       ("replica-" + std::to_string(replica));
  std::error_code ec;
  fs::create_directories(dir, ec);
  stores_.push_back(std::make_unique<store::SnapshotStore>(dir.string()));
  return stores_.back().get();
}

ReplicaSet::Options ClusterEngine::ReplicaOptions(uint32_t shard) {
  ReplicaSet::Options ro;
  ro.num_replicas = options_.num_replicas;
  ro.engine = options_.engine;
  ro.breaker = options_.breaker;
  ro.write_quorum = options_.write_quorum;
  ro.metrics = options_.metrics;
  ro.tail = options_.tail.replica;
  if (!options_.store_root.empty()) {
    ro.replica_stores.reserve(ro.num_replicas);
    for (size_t r = 0; r < ro.num_replicas; ++r) {
      ro.replica_stores.push_back(StoreFor(shard, r));
    }
  }
  return ro;
}

ClusterEngine::TailStats ClusterEngine::tail_stats() const {
  TailStats s;
  s.budget_requests = retry_budget_->requests();
  s.budget_acquired = retry_budget_->acquired();
  s.budget_denied = retry_budget_->denied();
  s.hedges_dispatched = hedges_dispatched_.load(std::memory_order_relaxed);
  s.hedges_won = hedges_won_.load(std::memory_order_relaxed);
  return s;
}

void ClusterEngine::InitMetrics() {
  serve::MetricsRegistry* m = options_.metrics;
  if (m == nullptr) return;
  scatter_metrics_.total = m->GetCounter("cluster.queries");
  scatter_metrics_.degraded = m->GetCounter("cluster.queries.degraded");
  scatter_metrics_.failovers = m->GetCounter("cluster.failovers");
  scatter_metrics_.shard_queries =
      m->GetCounterFamily("cluster.shard.queries", "shard");
  scatter_metrics_.shard_failovers =
      m->GetCounterFamily("cluster.shard.failovers", "shard");
  scatter_metrics_.shard_missing =
      m->GetCounterFamily("cluster.shard.missing", "shard");
  scatter_metrics_.shard_delta_hits =
      m->GetCounterFamily("cluster.shard.delta_hits", "shard");
  shard_tables_ = m->GetGaugeFamily("cluster.shard.tables", "shard");
  shard_replicas_alive_ =
      m->GetGaugeFamily("cluster.shard.replicas_alive", "shard");
  shard_replicas_serving_ =
      m->GetGaugeFamily("cluster.shard.replicas_serving", "shard");
  scrub_passes_ = m->GetCounter("cluster.repair.scrub_passes");
  repair_replicas_ =
      m->GetCounterFamily("cluster.repair.replicas_repaired", "shard");
  repair_tables_copied_ =
      m->GetCounterFamily("cluster.repair.tables_copied", "shard");
  repair_tables_dropped_ =
      m->GetCounterFamily("cluster.repair.tables_dropped", "shard");
  repair_failures_ = m->GetCounterFamily("cluster.repair.failures", "shard");
}

Result<std::unique_ptr<ClusterEngine>> ClusterEngine::Recover(
    Options options) {
  namespace fs = std::filesystem;
  if (options.store_root.empty()) {
    return Status::FailedPrecondition("cluster Recover requires store_root");
  }
  std::error_code ec;
  if (!fs::is_directory(options.store_root, ec)) {
    return Status::NotFound("cluster store_root does not exist: " +
                            options.store_root);
  }
  std::vector<uint32_t> shard_ids;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(options.store_root, ec)) {
    uint32_t id = 0;
    if (ParseIndexSuffix(entry.path().filename().string(), "shard-", &id)) {
      shard_ids.push_back(id);
    }
  }
  if (ec) {
    return Status::IoError("scanning " + options.store_root + ": " +
                           ec.message());
  }
  if (shard_ids.empty()) {
    return Status::NotFound("no shard directories under " +
                            options.store_root);
  }
  std::sort(shard_ids.begin(), shard_ids.end());

  // Filter to the shards that are actually part of the cluster: skip
  // retired directories (RemoveShard completed) and directories where no
  // replica ever persisted anything (AddShard died before its first
  // checkpoint — the shard was never visible durably). Skipped ids still
  // advance the shard-id sequence below, so ids are never reused.
  std::vector<uint32_t> live_ids;
  for (uint32_t id : shard_ids) {
    const fs::path shard_dir =
        fs::path(options.store_root) / ("shard-" + std::to_string(id));
    if (fs::exists(shard_dir / kRetiredMarker, ec)) {
      LAKE_LOG(Info) << "cluster recover: skipping retired shard-" << id;
      continue;
    }
    bool any_data = false;
    for (size_t r = 0;; ++r) {
      const fs::path dir = shard_dir / ("replica-" + std::to_string(r));
      if (!fs::is_directory(dir, ec)) break;
      if (ReplicaDirHasData(dir)) {
        any_data = true;
        break;
      }
    }
    if (!any_data) {
      LAKE_LOG(Info) << "cluster recover: skipping empty shard-" << id
                     << " (aborted add)";
      continue;
    }
    live_ids.push_back(id);
  }
  if (live_ids.empty()) {
    return Status::NotFound("no live shard directories under " +
                            options.store_root);
  }

  std::unique_ptr<ClusterEngine> cluster(
      new ClusterEngine(std::move(options)));
  auto topo = std::make_shared<Topology>();
  topo->ring = HashRing(cluster->options_.ring);
  size_t max_replicas = 1;
  for (uint32_t id : live_ids) {
    std::vector<std::unique_ptr<ingest::LiveEngine>> replicas;
    for (size_t r = 0;; ++r) {
      const fs::path dir = fs::path(cluster->options_.store_root) /
                           ("shard-" + std::to_string(id)) /
                           ("replica-" + std::to_string(r));
      if (!fs::is_directory(dir, ec)) break;
      store::SnapshotStore* store = cluster->StoreFor(id, r);
      ingest::LiveEngine::Options engine_options = cluster->options_.engine;
      engine_options.store = store;
      Result<std::unique_ptr<ingest::LiveEngine>> live =
          ingest::LiveEngine::Recover(store, std::move(engine_options));
      if (!live.ok()) return live.status();
      replicas.push_back(std::move(live).value());
    }
    if (replicas.empty()) {
      return Status::IoError("shard-" + std::to_string(id) +
                             " has no replica directories");
    }
    max_replicas = std::max(max_replicas, replicas.size());
    topo->ring.AddShard(id);
    ReplicaSet::Options ro;
    ro.breaker = cluster->options_.breaker;
    ro.write_quorum = cluster->options_.write_quorum;
    ro.metrics = cluster->options_.metrics;
    ro.tail = cluster->options_.tail.replica;
    topo->shards.push_back(std::make_shared<ReplicaSet>(
        id, std::move(replicas), std::move(ro)));
  }
  cluster->options_.num_shards = live_ids.size();
  cluster->options_.num_replicas = max_replicas;
  cluster->next_shard_id_ = shard_ids.back() + 1;
  cluster->Publish(std::move(topo));

  // Migration-crash cleanup: a crash mid-rebalance can strand a table on a
  // shard the recovered ring does not assign it to (AddShard died between
  // the new shard's checkpoint and the donor removes; RemoveShard died
  // between the survivor copies and the RETIRED marker). The rebalance
  // ordering makes the ring owner's copy durable before any donor drop, so
  // completing the migration is always safe. Without this, duplicated
  // tables double-count in the distributed BM25 corpus statistics.
  cluster->SweepStrayCopies();

  cluster->StartScrubber();
  return cluster;
}

// --- Queries -------------------------------------------------------------

TableQueryResponse ClusterEngine::Keyword(const std::string& query, size_t k,
                                          const CancelToken* cancel) const {
  auto topo = topology();

  // Phase A (distributed IDF, step 1): pin one generation per shard and
  // gather its BM25 corpus contribution. This is the failure surface —
  // replica pick, failpoints, failover all happen here.
  struct Pinned {
    std::shared_ptr<const ingest::Generation> gen;
    Bm25Index::CorpusStats stats;
  };
  auto pinned = ScatterToShards<Pinned>(
      *pool_, topo->shards, tail_, options_.max_failover_attempts,
      options_.shard_deadline, cancel,
      [query](const ingest::LiveEngine& engine, const CancelToken* token,
              uint32_t /*shard*/) -> Result<Pinned> {
        Pinned p;
        p.gen = engine.Acquire();
        p.stats = ingest::GatherKeywordStats(*p.gen, query);
        if (token != nullptr) {
          Status st = token->Check();
          if (!st.ok()) return st;
        }
        return p;
      });

  // Phase A (step 2): merge the per-shard stats into the global corpus
  // view every shard will score against.
  Bm25Index::CorpusStats global;
  for (const ShardOutcome<Pinned>& o : pinned) {
    if (o.status.ok()) global.Merge(o.answer.stats);
  }

  // Phase B: score each pinned generation with the global stats. Pure
  // compute over already-pinned immutable state — it cannot fail, so no
  // failover or deadline machinery here, and the scores come out
  // bit-identical to a single engine over the whole lake.
  std::vector<ShardOutcome<TableAnswer>> outcomes(pinned.size());
  std::vector<std::future<void>> scoring;
  scoring.reserve(pinned.size());
  for (size_t i = 0; i < pinned.size(); ++i) {
    ShardOutcome<Pinned>& in = pinned[i];
    ShardOutcome<TableAnswer>& out = outcomes[i];
    out.shard = in.shard;
    out.status = in.status;
    out.trace = in.trace;
    if (!in.status.ok()) continue;
    scoring.push_back(pool_->Async([&in, &out, &global, &query, k]() {
      ingest::MergeStats ms;
      std::vector<TableResult> results =
          ingest::MergedKeyword(*in.answer.gen, query, k, &ms, &global);
      out.answer.hits = ToTableHits(*in.answer.gen, in.shard, results);
      out.answer.delta_hits = ms.delta_results;
    }));
  }
  for (std::future<void>& f : scoring) f.get();

  RecordScatterMetrics(scatter_metrics_, outcomes);
  return BuildResponse<TableHit>(std::move(outcomes), k);
}

ColumnQueryResponse ClusterEngine::Joinable(
    const std::vector<std::string>& query_values, JoinMethod method, size_t k,
    const CancelToken* cancel, double error_budget) const {
  auto topo = topology();
  auto outcomes = ScatterToShards<ColumnAnswer>(
      *pool_, topo->shards, tail_, options_.max_failover_attempts,
      options_.shard_deadline, cancel,
      [query_values, method, k, error_budget](
          const ingest::LiveEngine& engine, const CancelToken* token,
          uint32_t shard) -> Result<ColumnAnswer> {
        std::shared_ptr<const ingest::Generation> gen = engine.Acquire();
        ingest::MergeStats ms;
        LAKE_ASSIGN_OR_RETURN(
            std::vector<ColumnResult> results,
            ingest::MergedJoinable(*gen, query_values, method, k, token, &ms,
                                   error_budget));
        ColumnAnswer a;
        a.hits = ToColumnHits(*gen, shard, results);
        a.delta_hits = ms.delta_results;
        return a;
      });
  RecordScatterMetrics(scatter_metrics_, outcomes);
  return BuildResponse<ColumnHit>(std::move(outcomes), k);
}

TableQueryResponse ClusterEngine::Unionable(const Table& query,
                                            UnionMethod method, size_t k,
                                            const std::string& exclude_name,
                                            const CancelToken* cancel) const {
  auto topo = topology();
  auto outcomes = ScatterToShards<TableAnswer>(
      *pool_, topo->shards, tail_, options_.max_failover_attempts,
      options_.shard_deadline, cancel,
      [query, exclude_name, method, k](
          const ingest::LiveEngine& engine, const CancelToken* token,
          uint32_t shard) -> Result<TableAnswer> {
        std::shared_ptr<const ingest::Generation> gen = engine.Acquire();
        // Resolve the excluded name to this shard's local id; only the
        // owning shard will find it.
        int64_t exclude = -1;
        if (!exclude_name.empty()) {
          Result<TableId> id = gen->FindTable(exclude_name);
          if (id.ok()) exclude = static_cast<int64_t>(*id);
        }
        ingest::MergeStats ms;
        LAKE_ASSIGN_OR_RETURN(
            std::vector<TableResult> results,
            ingest::MergedUnionable(*gen, query, method, k, exclude, token,
                                    &ms));
        TableAnswer a;
        a.hits = ToTableHits(*gen, shard, results);
        a.delta_hits = ms.delta_results;
        return a;
      });
  RecordScatterMetrics(scatter_metrics_, outcomes);
  return BuildResponse<TableHit>(std::move(outcomes), k);
}

ColumnQueryResponse ClusterEngine::Correlated(
    const std::vector<std::string>& key_values,
    const std::vector<double>& numeric_values, size_t k,
    const CancelToken* cancel) const {
  auto topo = topology();
  auto outcomes = ScatterToShards<ColumnAnswer>(
      *pool_, topo->shards, tail_, options_.max_failover_attempts,
      options_.shard_deadline, cancel,
      [key_values, numeric_values, k](
          const ingest::LiveEngine& engine, const CancelToken* token,
          uint32_t shard) -> Result<ColumnAnswer> {
        std::shared_ptr<const ingest::Generation> gen = engine.Acquire();
        ingest::MergeStats ms;
        LAKE_ASSIGN_OR_RETURN(
            std::vector<ColumnResult> results,
            ingest::MergedCorrelated(*gen, key_values, numeric_values, k,
                                     token, &ms));
        ColumnAnswer a;
        a.hits = ToColumnHits(*gen, shard, results);
        a.delta_hits = ms.delta_results;
        return a;
      });
  RecordScatterMetrics(scatter_metrics_, outcomes);
  return BuildResponse<ColumnHit>(std::move(outcomes), k);
}

// --- Ingest --------------------------------------------------------------

ingest::LiveEngine::BatchOutcome ClusterEngine::ApplyBatch(
    ingest::LiveEngine::Batch batch) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  auto topo = topology();

  struct Sub {
    ingest::LiveEngine::Batch batch;
    std::vector<size_t> add_index;
    std::vector<size_t> remove_index;
  };
  std::unordered_map<uint32_t, Sub> subs;
  for (size_t i = 0; i < batch.adds.size(); ++i) {
    Sub& sub = subs[topo->ring.OwnerOf(batch.adds[i].name())];
    sub.batch.adds.push_back(std::move(batch.adds[i]));
    sub.add_index.push_back(i);
  }
  for (size_t i = 0; i < batch.removes.size(); ++i) {
    Sub& sub = subs[topo->ring.OwnerOf(batch.removes[i])];
    sub.batch.removes.push_back(std::move(batch.removes[i]));
    sub.remove_index.push_back(i);
  }

  std::vector<std::pair<uint32_t, Sub*>> flat;
  flat.reserve(subs.size());
  for (auto& [shard, sub] : subs) flat.push_back({shard, &sub});

  std::vector<std::optional<Result<TableId>>> adds(batch.adds.size());
  std::vector<Status> removes(batch.removes.size(), Status::OK());
  bool published = false;
  std::mutex out_mu;
  pool_->ParallelFor(flat.size(), [&](size_t i) {
    auto [shard, sub] = flat[i];
    ReplicaSet* rs = topo->Find(shard);
    ingest::LiveEngine::BatchOutcome outcome =
        rs->ApplyBatch(std::move(sub->batch));
    std::lock_guard<std::mutex> out_lock(out_mu);
    for (size_t j = 0; j < sub->add_index.size(); ++j) {
      adds[sub->add_index[j]] = std::move(outcome.adds[j]);
    }
    for (size_t j = 0; j < sub->remove_index.size(); ++j) {
      removes[sub->remove_index[j]] = std::move(outcome.removes[j]);
    }
    if (outcome.published) published = true;
  });

  ingest::LiveEngine::BatchOutcome out;
  out.adds.reserve(adds.size());
  for (std::optional<Result<TableId>>& a : adds) {
    out.adds.push_back(std::move(*a));
  }
  out.removes = std::move(removes);
  out.published = published;
  BumpVersion();
  return out;
}

// --- Topology changes ----------------------------------------------------

Result<ClusterEngine::RebalanceStats> ClusterEngine::AddShard() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  const Clock::time_point start = Clock::now();
  auto old_topo = topology();
  const uint32_t id = next_shard_id_++;
  HashRing new_ring = old_topo->ring;
  new_ring.AddShard(id);

  RebalanceStats stats;
  stats.shard = id;

  // Collect the tables whose owning arc moved to the new shard.
  std::vector<Table> moved;
  std::vector<std::pair<ReplicaSet*, std::vector<std::string>>> donors;
  for (const std::shared_ptr<ReplicaSet>& rs : old_topo->shards) {
    std::vector<Table> tables = rs->VisibleTables();
    std::vector<std::string> names;
    for (Table& t : tables) {
      ++stats.tables_total;
      if (new_ring.OwnerOf(t.name()) != id) continue;
      names.push_back(t.name());
      moved.push_back(std::move(t));
    }
    if (!names.empty()) donors.push_back({rs.get(), std::move(names)});
  }
  stats.tables_moved = moved.size();

  // Build the new shard off the serving path (sorted by name, like every
  // shard base), then publish it alongside the donors.
  std::sort(moved.begin(), moved.end(), [](const Table& a, const Table& b) {
    return a.name() < b.name();
  });
  auto catalog = std::make_shared<DataLakeCatalog>();
  for (Table& t : moved) catalog->AddTable(std::move(t));
  auto added = std::make_shared<ReplicaSet>(
      id, std::shared_ptr<const DataLakeCatalog>(catalog), ReplicaOptions(id));

  // Make the new shard durable BEFORE it becomes the ring owner and the
  // donors shed their copies. Without this, a crash after the donor
  // removes would recover a cluster whose only copy of the moved tables
  // was the new shard's never-persisted memory — acknowledged loss. On
  // failure the topology is unchanged (the old ring keeps serving) and
  // the orphan replica directories are skipped by Recover, since no
  // checkpoint committed.
  if (!options_.store_root.empty()) {
    for (size_t r = 0; r < added->num_replicas(); ++r) {
      Status persisted = added->replica(r)->Checkpoint();
      if (!persisted.ok()) {
        return Status::IoError(
            "add-shard checkpoint of shard-" + std::to_string(id) +
            " replica " + std::to_string(r) +
            " failed (topology unchanged): " + persisted.ToString());
      }
    }
  }

  auto topo = std::make_shared<Topology>();
  topo->ring = std::move(new_ring);
  topo->shards = old_topo->shards;
  topo->shards.push_back(std::move(added));
  Publish(topo);
  BumpVersion();

  // Drop the moved tables from their donors. Until this finishes a moved
  // table answers from both owners with identical scores; the gather's
  // by-name dedup hides the overlap, and no moment exists where it
  // answers from neither. A donor remove that fails its quorum leaves a
  // duplicate, not a loss (the new owner serves it), so failures retry
  // and then fall through to the stray-copy sweep instead of aborting.
  for (auto& [rs, names] : donors) {
    std::vector<std::string> pending = std::move(names);
    for (int attempt = 0; attempt < 3 && !pending.empty(); ++attempt) {
      ingest::LiveEngine::Batch b;
      b.removes = pending;
      ingest::LiveEngine::BatchOutcome outcome = rs->ApplyBatch(std::move(b));
      std::vector<std::string> still;
      for (size_t i = 0; i < outcome.removes.size(); ++i) {
        const Status& st = outcome.removes[i];
        if (st.ok() || st.code() == StatusCode::kNotFound) continue;
        still.push_back(pending[i]);
      }
      pending = std::move(still);
    }
    if (!pending.empty()) {
      LAKE_LOG(Warning) << "add-shard: donor shard " << rs->shard_id()
                        << " kept " << pending.size()
                        << " duplicate table(s); SweepStrayCopies will "
                           "reclaim them";
    }
  }
  BumpVersion();
  stats.duration_ms = MsSince(start);
  return stats;
}

Result<ClusterEngine::RebalanceStats> ClusterEngine::RemoveShard(
    uint32_t shard) {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  const Clock::time_point start = Clock::now();
  auto old_topo = topology();
  ReplicaSet* victim = old_topo->Find(shard);
  if (victim == nullptr) {
    return Status::NotFound("no such shard: " + std::to_string(shard));
  }
  if (old_topo->shards.size() <= 1) {
    return Status::FailedPrecondition("cannot remove the last shard");
  }
  HashRing new_ring = old_topo->ring;
  new_ring.RemoveShard(shard);

  RebalanceStats stats;
  stats.shard = shard;
  for (const std::shared_ptr<ReplicaSet>& rs : old_topo->shards) {
    stats.tables_total += rs->replica(0)->Acquire()->visible_table_count();
  }

  // Re-home the victim's tables BEFORE retiring it: each moved table is
  // briefly visible on two shards (dedup hides it), never on none.
  std::vector<Table> tables = victim->VisibleTables();
  stats.tables_moved = tables.size();
  std::unordered_map<uint32_t, ingest::LiveEngine::Batch> batches;
  for (Table& t : tables) {
    batches[new_ring.OwnerOf(t.name())].adds.push_back(std::move(t));
  }
  // Every re-home must be ACKNOWLEDGED by its receiving quorum before the
  // victim may retire — an unacked copy would silently vanish with the
  // victim. On any failure the whole removal aborts: already-acked copies
  // are rolled back best-effort (a leftover duplicate is harmless — the
  // gather dedups it and SweepStrayCopies/Recover reclaims it), the ring
  // keeps the victim, and nothing was lost.
  std::vector<uint32_t> receivers;
  std::vector<std::pair<uint32_t, std::vector<std::string>>> acked_copies;
  Status rehome_failure = Status::OK();
  for (auto& [owner, b] : batches) {
    receivers.push_back(owner);
    std::vector<std::string> names;
    for (const Table& t : b.adds) names.push_back(t.name());
    ingest::LiveEngine::BatchOutcome outcome =
        old_topo->Find(owner)->ApplyBatch(std::move(b));
    std::vector<std::string> acked;
    for (size_t i = 0; i < outcome.adds.size(); ++i) {
      const Result<TableId>& r = outcome.adds[i];
      if (r.ok() || r.status().code() == StatusCode::kAlreadyExists) {
        acked.push_back(names[i]);
      } else if (rehome_failure.ok()) {
        rehome_failure = r.status();
      }
    }
    if (!acked.empty()) acked_copies.push_back({owner, std::move(acked)});
    if (!rehome_failure.ok()) break;
  }
  if (!rehome_failure.ok()) {
    for (auto& [owner, names] : acked_copies) {
      ingest::LiveEngine::Batch undo;
      undo.removes = std::move(names);
      old_topo->Find(owner)->ApplyBatch(std::move(undo));
    }
    return Status::Unavailable(
        "remove-shard re-home was not acknowledged (topology unchanged): " +
        rehome_failure.ToString());
  }

  if (!options_.store_root.empty()) {
    // Durability ordering: (1) the survivors' copies become durable, then
    // (2) the victim's directory is marked RETIRED, then (3) the topology
    // publishes. A crash after (1) but before (2) recovers the victim as
    // owner and drops the survivor copies (migration undone, nothing
    // lost); a crash after (2) recovers without the victim and the
    // survivors own their copies. No window loses a table or resurrects
    // the removed shard.
    for (uint32_t owner : receivers) {
      ReplicaSet* rs = old_topo->Find(owner);
      for (size_t r = 0; r < rs->num_replicas(); ++r) {
        Status persisted = rs->replica(r)->Checkpoint();
        if (!persisted.ok()) {
          return Status::IoError(
              "remove-shard checkpoint of survivor shard-" +
              std::to_string(owner) + " replica " + std::to_string(r) +
              " failed (topology unchanged): " + persisted.ToString());
        }
      }
    }
    namespace fs = std::filesystem;
    const fs::path marker = fs::path(options_.store_root) /
                            ("shard-" + std::to_string(shard)) /
                            kRetiredMarker;
    std::ofstream out(marker, std::ios::trunc);
    out << "retired by RemoveShard\n";
    out.close();
    if (!out) {
      return Status::IoError("cannot write retirement marker " +
                             marker.string() +
                             " (topology unchanged; duplicate copies will "
                             "be dropped on recovery)");
    }
  }

  auto topo = std::make_shared<Topology>();
  topo->ring = std::move(new_ring);
  for (const std::shared_ptr<ReplicaSet>& rs : old_topo->shards) {
    if (rs->shard_id() != shard) topo->shards.push_back(rs);
  }
  Publish(topo);
  BumpVersion();
  stats.duration_ms = MsSince(start);
  return stats;
}

// --- Health / chaos ------------------------------------------------------

Status ClusterEngine::KillReplica(uint32_t shard, size_t replica) {
  auto topo = topology();
  ReplicaSet* rs = topo->Find(shard);
  if (rs == nullptr) {
    return Status::NotFound("no such shard: " + std::to_string(shard));
  }
  if (replica >= rs->num_replicas()) {
    return Status::OutOfRange("no such replica: " + std::to_string(replica));
  }
  rs->Kill(replica);
  return Status::OK();
}

Status ClusterEngine::ReviveReplica(uint32_t shard, size_t replica) {
  auto topo = topology();
  ReplicaSet* rs = topo->Find(shard);
  if (rs == nullptr) {
    return Status::NotFound("no such shard: " + std::to_string(shard));
  }
  if (replica >= rs->num_replicas()) {
    return Status::OutOfRange("no such replica: " + std::to_string(replica));
  }
  rs->Revive(replica);
  return Status::OK();
}

std::vector<ClusterEngine::ShardHealth> ClusterEngine::Health() const {
  auto topo = topology();
  std::vector<ShardHealth> out;
  if (topo == nullptr) return out;
  const auto now = serve::CircuitBreaker::Clock::now();
  out.reserve(topo->shards.size());
  for (const std::shared_ptr<ReplicaSet>& rs : topo->shards) {
    ShardHealth h;
    h.shard = rs->shard_id();
    h.tables = rs->replica(0)->Acquire()->visible_table_count();
    h.replicas_alive = rs->num_alive();
    h.replicas.reserve(rs->num_replicas());
    for (size_t r = 0; r < rs->num_replicas(); ++r) {
      ReplicaHealth rh;
      rh.replica = r;
      rh.alive = rs->alive(r);
      rh.stale = rs->stale(r);
      rh.content_digest = rs->replica(r)->content_digest();
      rh.breaker_state = rs->breaker(r)->state(now);
      rh.breaker_trips = rs->breaker(r)->trips();
      const auto tail_now = ReplicaSet::Clock::now();
      rh.latency_p95_us = rs->LatencyQuantile(r, 0.95, tail_now);
      rh.latency_samples = rs->LatencySamples(r, tail_now);
      rh.slow_ejected = rs->slow_ejected(r);
      rh.slow_ejections = rs->slow_ejections(r);
      if (rh.slow_ejected) ++h.replicas_ejected;
      // Pick's actual eligibility: dead, stale, and breaker-open replicas
      // are all skipped, so none of them may report as serving.
      rh.serving = rh.alive && !rh.stale &&
                   rh.breaker_state != serve::CircuitBreaker::State::kOpen;
      if (rh.serving) ++h.replicas_serving;
      if (rh.stale) ++h.replicas_stale;
      if (!h.replicas.empty() &&
          rh.content_digest != h.replicas.front().content_digest) {
        h.digests_agree = false;
      }
      h.replicas.push_back(rh);
    }
    if (shard_tables_ != nullptr) {
      shard_tables_->WithLabel(h.shard)->Set(h.tables);
    }
    if (shard_replicas_alive_ != nullptr) {
      shard_replicas_alive_->WithLabel(h.shard)->Set(h.replicas_alive);
    }
    if (shard_replicas_serving_ != nullptr) {
      shard_replicas_serving_->WithLabel(h.shard)->Set(h.replicas_serving);
    }
    out.push_back(std::move(h));
  }
  return out;
}

// --- Anti-entropy --------------------------------------------------------

ClusterEngine::ScrubReport ClusterEngine::ScrubOnce() {
  const Clock::time_point start = Clock::now();
  ScrubReport report;
  auto topo = topology();
  if (topo == nullptr) return report;
  for (const std::shared_ptr<ReplicaSet>& rs : topo->shards) {
    ++report.shards_checked;
    // Cheap pre-check without the write lock: no stale flags and all
    // digests equal is the steady state, and costs R atomic loads.
    bool suspect = rs->num_stale() > 0;
    const uint64_t first = rs->replica(0)->content_digest();
    for (size_t i = 1; !suspect && i < rs->num_replicas(); ++i) {
      if (rs->replica(i)->content_digest() != first) suspect = true;
    }
    if (!suspect) continue;
    ++report.shards_divergent;
    // Serialize with the write path (and other scrub passes) so repair
    // diffs a quiescent shard; queries keep reading the published
    // generations throughout.
    std::lock_guard<std::mutex> lock(mutate_mu_);
    RepairShard(*rs, &report);
  }
  if (scrub_passes_ != nullptr) scrub_passes_->Add();
  report.duration_ms = MsSince(start);
  return report;
}

void ClusterEngine::RepairShard(ReplicaSet& rs, ScrubReport* report) {
  const size_t r = rs.num_replicas();
  std::vector<uint64_t> digests(r);
  for (size_t i = 0; i < r; ++i) {
    digests[i] = rs.replica(i)->content_digest();
  }

  // Canonical digest = majority vote among non-stale replicas (quorum
  // writes keep them digest-equal, so the vote is only load-bearing after
  // divergent recoveries), ties toward the lowest replica index. An
  // all-stale shard — unreachable through the public write path — falls
  // back to voting among everyone rather than repairing toward nothing.
  std::vector<size_t> voters;
  for (size_t i = 0; i < r; ++i) {
    if (!rs.stale(i)) voters.push_back(i);
  }
  if (voters.empty()) {
    for (size_t i = 0; i < r; ++i) voters.push_back(i);
  }
  std::map<uint64_t, size_t> counts;
  for (size_t i : voters) ++counts[digests[i]];
  size_t source = voters.front();
  for (size_t i : voters) {
    if (counts[digests[i]] > counts[digests[source]]) source = i;
  }
  const uint64_t canonical = digests[source];

  for (size_t d = 0; d < r; ++d) {
    if (digests[d] == canonical) {
      // Content already matches the canonical copy (e.g. a stale replica
      // that kept receiving writes and caught back up): re-admit.
      if (rs.stale(d)) {
        rs.ClearStale(d);
        ++report->replicas_repaired;
        if (repair_replicas_ != nullptr) {
          repair_replicas_->WithLabel(rs.shard_id())->Add();
        }
      }
      continue;
    }
    // Exclude the divergent replica from reads BEFORE touching it — a
    // divergence found by digest comparison (bit-flipped recovery, dropped
    // delta section) was never marked by the write path.
    rs.MarkStale(d);

    // Drill down to per-table digests and build the minimal repair batch:
    // drop tables the canonical copy lacks, re-copy tables whose digest
    // differs or that are missing. Removes run before adds within one
    // LiveEngine batch, so a stale copy is replaced in a single publish.
    const std::map<std::string, uint32_t> want =
        rs.replica(source)->TableDigests();
    const std::map<std::string, uint32_t> have = rs.replica(d)->TableDigests();
    ingest::LiveEngine::Batch fix;
    std::vector<std::string> copies;
    for (const auto& [name, digest] : have) {
      if (want.count(name) == 0) fix.removes.push_back(name);
    }
    for (const auto& [name, digest] : want) {
      auto it = have.find(name);
      if (it != have.end() && it->second == digest) continue;
      if (it != have.end()) fix.removes.push_back(name);
      copies.push_back(name);
    }
    // Copy-then-publish: read the tables from the canonical replica's
    // published generation (RCU — no locks against its readers), apply to
    // the divergent replica as one batch through its own publish path.
    std::shared_ptr<const ingest::Generation> gen =
        rs.replica(source)->Acquire();
    for (const std::string& name : copies) {
      Result<TableId> id = gen->FindTable(name);
      if (!id.ok()) continue;
      Result<const Table*> table = gen->FindTableById(id.value());
      if (!table.ok()) continue;
      fix.adds.push_back(*table.value());
    }
    const size_t copied = fix.adds.size();
    const size_t dropped = fix.removes.size();
    report->tables_dropped += dropped;
    report->tables_copied += copied;
    if (repair_tables_dropped_ != nullptr) {
      repair_tables_dropped_->WithLabel(rs.shard_id())->Add(dropped);
      repair_tables_copied_->WithLabel(rs.shard_id())->Add(copied);
    }
    rs.replica(d)->ApplyBatch(std::move(fix));

    // Verify before re-admitting; a replica that still disagrees stays
    // stale and the next pass retries (counted as a repair failure).
    if (rs.replica(d)->content_digest() == canonical) {
      rs.ClearStale(d);
      ++report->replicas_repaired;
      if (repair_replicas_ != nullptr) {
        repair_replicas_->WithLabel(rs.shard_id())->Add();
      }
      LAKE_LOG(Info) << "shard " << rs.shard_id() << ": repaired replica "
                     << d << " (" << copied << " copied, " << dropped
                     << " dropped)";
    } else {
      ++report->replicas_unrepaired;
      if (repair_failures_ != nullptr) {
        repair_failures_->WithLabel(rs.shard_id())->Add();
      }
      LAKE_LOG(Warning) << "shard " << rs.shard_id() << ": replica " << d
                        << " still divergent after repair; will retry";
    }
  }
}

// --- Durability ----------------------------------------------------------

Status ClusterEngine::Checkpoint() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  if (options_.store_root.empty()) {
    return Status::FailedPrecondition("cluster has no store_root");
  }
  auto topo = topology();
  std::vector<Status> statuses(topo->shards.size(), Status::OK());
  pool_->ParallelFor(topo->shards.size(), [&](size_t i) {
    ReplicaSet& rs = *topo->shards[i];
    for (size_t r = 0; r < rs.num_replicas(); ++r) {
      Status st = rs.replica(r)->Checkpoint();
      if (!st.ok() && statuses[i].ok()) statuses[i] = st;
    }
  });
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status ClusterEngine::CompactAll() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  auto topo = topology();
  if (topo == nullptr) return Status::OK();
  std::vector<Status> statuses(topo->shards.size(), Status::OK());
  pool_->ParallelFor(topo->shards.size(), [&](size_t i) {
    ReplicaSet& rs = *topo->shards[i];
    for (size_t r = 0; r < rs.num_replicas(); ++r) {
      Result<ingest::LiveEngine::CompactionStats> stats =
          rs.replica(r)->Compact();
      if (!stats.ok() && statuses[i].ok()) statuses[i] = stats.status();
    }
  });
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

std::vector<Table> ClusterEngine::VisibleTables() const {
  std::vector<Table> out;
  auto topo = topology();
  if (topo == nullptr) return out;
  std::unordered_set<std::string> seen;
  for (const std::shared_ptr<ReplicaSet>& rs : topo->shards) {
    for (Table& t : rs->VisibleTables()) {
      if (seen.insert(t.name()).second) out.push_back(std::move(t));
    }
  }
  std::sort(out.begin(), out.end(), [](const Table& a, const Table& b) {
    return a.name() < b.name();
  });
  return out;
}

size_t ClusterEngine::SweepStrayCopies() {
  std::lock_guard<std::mutex> lock(mutate_mu_);
  auto topo = topology();
  if (topo == nullptr) return 0;
  size_t swept = 0;
  for (const std::shared_ptr<ReplicaSet>& rs : topo->shards) {
    std::vector<Table> tables = rs->VisibleTables();
    ingest::LiveEngine::Batch drop;
    for (Table& t : tables) {
      const uint32_t owner = topo->ring.OwnerOf(t.name());
      if (owner == rs->shard_id()) continue;
      if (topo->Find(owner) == nullptr) continue;  // ring only maps live shards
      // Drop unconditionally. Acked adds are durable on the owner before
      // any donor sheds its copy, so if the owner lacks this table it was
      // removed after the stray was orphaned; moving it back would
      // resurrect an acknowledged remove.
      drop.removes.push_back(t.name());
    }
    if (!drop.removes.empty()) {
      LAKE_LOG(Info) << "cluster: shard " << rs->shard_id() << " dropping "
                     << drop.removes.size()
                     << " stray table(s) from an interrupted rebalance";
      swept += drop.removes.size();
      rs->ApplyBatch(std::move(drop));
    }
  }
  if (swept > 0) BumpVersion();
  return swept;
}

std::map<std::string, uint32_t> ClusterEngine::VisibleTableDigests() const {
  std::map<std::string, uint32_t> out;
  auto topo = topology();
  if (topo == nullptr) return out;
  for (const std::shared_ptr<ReplicaSet>& rs : topo->shards) {
    // Authoritative copy: the first non-stale replica (same rule as
    // ReplicaSet::VisibleTables); an all-stale shard falls back to
    // replica 0.
    size_t source = 0;
    for (size_t r = 0; r < rs->num_replicas(); ++r) {
      if (!rs->stale(r)) {
        source = r;
        break;
      }
    }
    for (const auto& [name, digest] : rs->replica(source)->TableDigests()) {
      out[name] = digest;
    }
  }
  return out;
}

// --- Introspection -------------------------------------------------------

size_t ClusterEngine::num_shards() const {
  auto topo = topology();
  return topo == nullptr ? 0 : topo->shards.size();
}

size_t ClusterEngine::TotalVisibleTables() const {
  auto topo = topology();
  if (topo == nullptr) return 0;
  size_t total = 0;
  for (const std::shared_ptr<ReplicaSet>& rs : topo->shards) {
    total += rs->replica(0)->Acquire()->visible_table_count();
  }
  return total;
}

uint32_t ClusterEngine::OwnerOf(const std::string& name) const {
  return topology()->ring.OwnerOf(name);
}

}  // namespace lake::cluster
