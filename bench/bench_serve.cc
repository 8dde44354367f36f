// E18 and E23 — the serving layer's two shape claims that neither
// perfbench/ nor a test backs (survey §3, "discovery as a service").
//
// Default mode, E18: under open-loop offered load at 1x/2x/4x of measured
// capacity, adaptive admission (AIMD limit + CoDel dequeue shedding +
// door refusal while dropping) holds goodput at 4x within 10% of 1x, fails
// shed queries fast, and lets no admitted query die of its deadline.
//
// `--tail`, E23: with one replica slowed ~10x, hedged reads keep p99 at
// most 0.5x the unhedged cluster's, results bit-identical, duplicated work
// within the retry budget.
//
// Each mode prints result rows and RESULT_JSON lines (bench_common.h
// idiom); `--tail` also prints a PASS/FAIL verdict and exits non-zero when
// its claim fails. The cache, worker-scaling, recovery, shard and replica claims are backed by
// perfbench/ workloads and ctest suites instead (EXPERIMENTS.md).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster_engine.h"
#include "lakegen/generator.h"
#include "search/discovery_engine.h"
#include "serve/query_service.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace {

using lake::DiscoveryEngine;
using lake::GeneratedLake;
using lake::GeneratorOptions;
using lake::LakeGenerator;
using lake::StrFormat;
using lake::StatusCode;
using lake::serve::QueryKind;
using lake::serve::QueryRequest;
using lake::serve::QueryService;
using lake::serve::QueryResponse;

constexpr size_t kTopK = 10;

/// The overload sweep's mixed keyword/join/union queries, cycled by the
/// arrival loop.
std::vector<QueryRequest> MakeWorkload(const GeneratedLake& lake) {
  constexpr size_t kDistinctQueries = 24;
  std::vector<QueryRequest> distinct;
  const size_t num_tables = lake.catalog.num_tables();
  for (size_t i = 0; distinct.size() < kDistinctQueries; ++i) {
    QueryRequest req;
    req.k = kTopK;
    switch (i % 3) {
      case 0: {  // join on a string column of table i
        const lake::Table& t =
            lake.catalog.table(static_cast<lake::TableId>(i % num_tables));
        req.kind = QueryKind::kJoin;
        req.join_method = lake::JoinMethod::kJosie;
        for (size_t c = 0; c < t.num_columns(); ++c) {
          if (!t.column(c).IsNumeric()) {
            req.values = t.column(c).DistinctStrings();
            break;
          }
        }
        if (req.values.empty()) continue;
        break;
      }
      case 1:  // keyword on a template topic
        req.kind = QueryKind::kKeyword;
        req.keyword = lake.topic_of[i % lake.topic_of.size()];
        break;
      default:  // union with the query table excluded
        req.kind = QueryKind::kUnion;
        req.union_method = lake::UnionMethod::kStarmie;
        req.union_table =
            &lake.catalog.table(static_cast<lake::TableId>(i % num_tables));
        req.exclude = static_cast<int64_t>(i % num_tables);
        break;
    }
    distinct.push_back(std::move(req));
  }
  return distinct;
}

double Percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t index = std::min(
      sorted.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted.size())));
  return sorted[index];
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ----------------------------------------------- overload sweep (E18)

constexpr auto kOverloadDeadline = std::chrono::milliseconds(300);

/// Sustainable throughput for the sweep workload: a closed-loop drain of
/// a full queue with no deadlines (so nothing signals congestion and the
/// admission limit holds at max_pending). The sweep's load factors are
/// scaled from this. The first drain runs on a cold engine, several times
/// slower than steady state on a multi-core host, so it only warms up and
/// the second is timed.
double MeasureOverloadCapacity(const DiscoveryEngine& engine,
                               const std::vector<QueryRequest>& workload) {
  constexpr size_t kCalibration = 1500;
  QueryService::Options sopts;
  sopts.num_workers = 4;
  sopts.max_pending = kCalibration;
  sopts.enable_cache = false;
  sopts.enable_breakers = false;
  sopts.enable_brownout = false;
  QueryService service(&engine, sopts);
  double qps = 0;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<std::future<QueryResponse>> inflight;
    inflight.reserve(kCalibration);
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kCalibration; ++i) {
      QueryRequest copy = workload[i % workload.size()];
      auto submitted = service.Submit(std::move(copy));
      if (submitted.ok()) inflight.push_back(std::move(submitted->response));
    }
    size_t ok = 0;
    for (std::future<QueryResponse>& f : inflight) {
      if (f.get().status.ok()) ++ok;
    }
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    qps = wall_s > 0 ? static_cast<double>(ok) / wall_s : 100.0;
  }
  return qps;
}

/// One cell of the overload sweep: fixed-rate open-loop arrivals replayed
/// against a fresh service, queries carrying the default deadline.
struct OverloadCell {
  double offered_qps = 0;
  double goodput_qps = 0;   // ok responses / wall time (incl. drain)
  double shed_rate = 0;     // shed (submit-reject + CoDel) / offered
  double dead_rate = 0;     // died of deadline / offered
  size_t dead = 0;
  double p50_ms = 0;        // successful queries only
  double p99_ms = 0;
  double shed_fail_ms_p95 = 0;  // submit-to-failure time of shed queries
  size_t final_limit = 0;       // adaptive concurrency limit at the end
};

OverloadCell RunOverloadCell(const DiscoveryEngine& engine,
                             const std::vector<QueryRequest>& workload,
                             double offered_qps) {
  QueryService::Options sopts;
  sopts.num_workers = 4;
  sopts.max_pending = 4096;
  // Isolate the admission story: no cache to absorb the load, no breakers
  // or brownout to convert overload into a different failure mode. A
  // short decrease cooldown lets the AIMD loop converge within the
  // warm-up instead of spending the measured window walking down.
  sopts.enable_cache = false;
  sopts.enable_breakers = false;
  sopts.enable_brownout = false;
  sopts.default_deadline = kOverloadDeadline;
  sopts.admission.decrease_cooldown = std::chrono::milliseconds(25);
  // Throughput-leaning CoDel target (the derived default, deadline/10,
  // optimizes sojourn instead): the limit settles where queue wait is
  // ~1/4 of the deadline, which keeps goodput at capacity under 4x load
  // while still failing everything sheddable long before the deadline.
  sopts.admission.codel_target = kOverloadDeadline / 4;
  QueryService service(&engine, sopts);

  // Warm-up arrivals run at the offered rate but are excluded from the
  // stats: the sweep measures steady-state behavior, not the transient
  // while the controller discovers the overload.
  const double warmup_s = 0.6;
  const double duration_s = 2.4;
  const size_t warmup = std::min<size_t>(
      static_cast<size_t>(offered_qps * warmup_s), 4000);
  const size_t total = warmup + std::min<size_t>(
      static_cast<size_t>(offered_qps * duration_s), 16000);
  const auto interarrival =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(1.0 / offered_qps));

  std::vector<std::future<QueryResponse>> warming;
  warming.reserve(warmup);
  std::vector<std::future<QueryResponse>> inflight;
  inflight.reserve(total - warmup);
  std::vector<double> shed_fail_ms;
  size_t shed = 0, dead = 0, ok = 0, measured = 0;

  auto measure_start = std::chrono::steady_clock::now();
  auto next_arrival = measure_start;
  // Pace in ~1ms bursts: at thousands of offered qps a per-arrival sleep
  // makes the (single-core, shared-with-workers) arrival thread cost scale
  // with offered load; millisecond bursts keep the open-loop rate while
  // costing every cell the same wakeup overhead.
  const size_t burst =
      std::max<size_t>(1, static_cast<size_t>(offered_qps / 1000.0));
  for (size_t i = 0; i < total; ++i) {
    if (i % burst == 0) std::this_thread::sleep_until(next_arrival);
    next_arrival += interarrival;
    const bool in_measurement = i >= warmup;
    if (i == warmup) {
      // Re-align the pacing clock: if the warm-up fell behind the offered
      // rate, leftover lag would otherwise fire the first measured
      // arrivals as a catch-up burst and inflate goodput above offered.
      measure_start = std::chrono::steady_clock::now();
      next_arrival = measure_start + interarrival;
    }
    QueryRequest copy = workload[i % workload.size()];
    const auto submit_start = std::chrono::steady_clock::now();
    auto submitted = service.Submit(std::move(copy));
    if (!in_measurement) {
      if (submitted.ok()) warming.push_back(std::move(submitted->response));
      continue;
    }
    ++measured;
    if (!submitted.ok()) {  // shed at admission: must be near-instant
      ++shed;
      shed_fail_ms.push_back(ElapsedMs(submit_start));
      continue;
    }
    inflight.push_back(std::move(submitted->response));
  }
  for (std::future<QueryResponse>& f : warming) (void)f.get();
  std::vector<double> ok_ms;
  ok_ms.reserve(inflight.size());
  for (std::future<QueryResponse>& f : inflight) {
    const QueryResponse r = f.get();
    if (r.status.ok()) {
      ++ok;
      ok_ms.push_back(r.latency_ms);
    } else if (r.status.code() == StatusCode::kOverloaded) {
      ++shed;  // CoDel drop at dequeue
      shed_fail_ms.push_back(r.latency_ms);
    } else if (r.status.code() == StatusCode::kDeadlineExceeded) {
      ++dead;  // queued past its whole budget: the slow failure mode
    }
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - measure_start)
                            .count();

  std::sort(ok_ms.begin(), ok_ms.end());
  std::sort(shed_fail_ms.begin(), shed_fail_ms.end());
  OverloadCell cell;
  cell.offered_qps = offered_qps;
  cell.goodput_qps = wall_s > 0 ? static_cast<double>(ok) / wall_s : 0;
  cell.shed_rate =
      static_cast<double>(shed) / static_cast<double>(std::max<size_t>(1, measured));
  cell.dead_rate =
      static_cast<double>(dead) / static_cast<double>(std::max<size_t>(1, measured));
  cell.dead = dead;
  cell.p50_ms = Percentile(ok_ms, 0.50);
  cell.p99_ms = Percentile(ok_ms, 0.99);
  cell.shed_fail_ms_p95 = Percentile(shed_fail_ms, 0.95);
  cell.final_limit = service.admission().limit();
  return cell;
}

/// E18: offered load at 1x/2x/4x of measured capacity; every query
/// carries the default deadline, so a backlog the service fails to shed
/// would turn into slow deadline deaths.
void RunOverloadSweep(const GeneratedLake& lake,
                      const DiscoveryEngine::Options& eopts) {
  lake::bench::PrintHeader(
      "E18: bench_serve",
      "adaptive admission holds goodput under overload: goodput at 4x "
      "offered load >= 0.9x of 1x, shed queries fail fast, no deadline "
      "deaths");
  DiscoveryEngine engine(&lake.catalog, &lake.kb, eopts);
  const std::vector<QueryRequest> workload = MakeWorkload(lake);

  const double capacity = MeasureOverloadCapacity(engine, workload);
  std::printf(
      "%zu tables, %zu distinct queries, k=%zu; capacity %.0f qps "
      "(closed-loop drain, 4 workers), deadline %lldms\n",
      lake.catalog.num_tables(), workload.size(), kTopK, capacity,
      static_cast<long long>(kOverloadDeadline.count()));
  std::printf("%-6s %12s %12s %10s %10s %9s %14s %6s\n", "load",
              "offered_qps", "goodput_qps", "shed_rate", "dead_rate",
              "p99_ms", "shed_fail_p95", "limit");
  std::vector<double> goodput_1x_runs, goodput_4x_runs;
  double shed_fail_p95_worst = 0;
  size_t deaths = 0;
  for (const double factor : {1.0, 2.0, 4.0}) {
    const OverloadCell cell =
        RunOverloadCell(engine, workload, capacity * factor);
    deaths += cell.dead;
    std::printf("%-6.0fx %12.1f %12.1f %10.3f %10.3f %9.3f %14.3f %6zu\n",
                factor, cell.offered_qps, cell.goodput_qps, cell.shed_rate,
                cell.dead_rate, cell.p99_ms, cell.shed_fail_ms_p95,
                cell.final_limit);
    lake::bench::PrintJsonLine(
        "E18:bench_serve:overload",
        StrFormat("\"load_factor\":%.0f,\"offered_qps\":%.1f,"
                  "\"goodput_qps\":%.1f,\"shed_rate\":%.3f,"
                  "\"dead_rate\":%.3f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
                  "\"shed_fail_ms_p95\":%.3f,\"final_limit\":%zu",
                  factor, cell.offered_qps, cell.goodput_qps, cell.shed_rate,
                  cell.dead_rate, cell.p50_ms, cell.p99_ms,
                  cell.shed_fail_ms_p95, cell.final_limit));
    if (factor == 1.0) goodput_1x_runs.push_back(cell.goodput_qps);
    if (factor == 4.0) goodput_4x_runs.push_back(cell.goodput_qps);
    // Only cells that shed a meaningful fraction have enough shed samples
    // for a p95 to mean anything.
    if (cell.shed_rate >= 0.05) {
      shed_fail_p95_worst =
          std::max(shed_fail_p95_worst, cell.shed_fail_ms_p95);
    }
  }
  // The goodput ratio is the headline number, and on a shared machine one
  // 3-second cell can land inside a noisy-neighbor episode. Re-run the two
  // cells it compares (interleaved, so drift hits both) and take medians.
  for (int rep = 0; rep < 2; ++rep) {
    for (const double factor : {1.0, 4.0}) {
      const OverloadCell cell =
          RunOverloadCell(engine, workload, capacity * factor);
      deaths += cell.dead;
      (factor == 1.0 ? goodput_1x_runs : goodput_4x_runs)
          .push_back(cell.goodput_qps);
    }
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double goodput_1x = median(goodput_1x_runs);
  const double goodput_4x = median(goodput_4x_runs);
  const double ratio = goodput_1x > 0 ? goodput_4x / goodput_1x : 0;
  std::printf(
      "\nadaptive goodput at 4x / 1x = %.2f (medians of 3); deadline deaths "
      "%zu over 7 cells; worst shed-failure p95 %.2fms\n",
      ratio, deaths, shed_fail_p95_worst);
  lake::bench::PrintJsonLine(
      "E18:bench_serve:overload_summary",
      StrFormat("\"capacity_qps\":%.1f,\"goodput_1x\":%.1f,"
                "\"goodput_4x\":%.1f,\"goodput_4x_over_1x\":%.2f,"
                "\"deadline_deaths\":%zu,\"shed_fail_ms_p95_worst\":%.2f,"
                "\"deadline_ms\":%lld",
                capacity, goodput_1x, goodput_4x, ratio, deaths,
                shed_fail_p95_worst,
                static_cast<long long>(kOverloadDeadline.count())));
}

// ------------------------------------------- tail-tolerance cell (E23)

/// Ranked (name, score) signature of one response, order-normalized the
/// same way the cluster tests canonicalize hits.
std::vector<std::pair<std::string, double>> HitSignature(
    const lake::cluster::TableQueryResponse& resp) {
  std::vector<std::pair<std::string, double>> sig;
  sig.reserve(resp.hits.size());
  for (const auto& h : resp.hits) sig.emplace_back(h.table, h.score);
  std::sort(sig.begin(), sig.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return sig;
}

struct TailRun {
  std::vector<double> ms;  // per-query wall latency, unsorted
  std::vector<std::vector<std::pair<std::string, double>>> sigs;
};

/// Replays `warmup + n` keyword queries (cycling the template topics)
/// against the cluster. The first `warmup` queries run but are excluded
/// from the latency sample: the cell measures steady state, not the
/// transient while the latency windows fill, the ejector converges, and
/// the retry budget's volume builds (the budget deliberately starves
/// hedges on a cold start — that bound is asserted separately via
/// TailStats, which spans the whole run). Result signatures come from
/// the first topic cycle regardless.
TailRun ReplayTail(lake::cluster::ClusterEngine& cluster,
                   const std::vector<std::string>& topics, size_t warmup,
                   size_t n) {
  TailRun run;
  run.ms.reserve(n);
  for (size_t i = 0; i < warmup + n; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const auto resp = cluster.Keyword(topics[i % topics.size()], kTopK);
    if (i >= warmup) run.ms.push_back(ElapsedMs(start));
    if (i < topics.size()) run.sigs.push_back(HitSignature(resp));
  }
  return run;
}

/// E23: tail tolerance under a persistently slow replica. One replica of
/// shard 0 is slowed ~10x (persistent kDelay failpoint); the same
/// keyword workload replays against a plain failover cluster and against
/// one with hedged reads + latency-outlier ejection. The claims checked:
/// hedged p99 <= 0.5x unhedged p99, hedged results bit-identical to a
/// healthy run, and duplicated sub-queries (hedges + funded retries)
/// within the retry budget's ratio-plus-floor allowance.
int RunTailCell(const GeneratedLake& lake,
                const DiscoveryEngine::Options& eopts) {
  using lake::cluster::ClusterEngine;
  lake::bench::PrintHeader(
      "E23: bench_serve --tail",
      "hedged reads cap the tail a slow replica would otherwise impose: "
      "p99 with hedging <= 0.5x without, results bit-identical, "
      "duplicated work within the retry budget");

  std::vector<std::string> topics = lake.topic_of;
  constexpr size_t kTailWarmup = 150;
  constexpr size_t kTailQueries = 300;

  auto base_options = [&] {
    ClusterEngine::Options copts;
    copts.num_shards = 2;
    copts.num_replicas = 2;
    copts.engine.base_options = eopts;
    copts.engine.kb = &lake.kb;
    return copts;
  };

  // Healthy anchor (no fault, no tail features): result signatures and
  // the p50 the slow replica is scaled from.
  std::vector<std::vector<std::pair<std::string, double>>> healthy_sigs;
  double healthy_p50_ms = 0;
  {
    ClusterEngine healthy(lake.catalog, base_options());
    TailRun run = ReplayTail(healthy, topics, /*warmup=*/0, 100);
    healthy_sigs = std::move(run.sigs);
    std::sort(run.ms.begin(), run.ms.end());
    healthy_p50_ms = Percentile(run.ms, 0.50);
  }
  const uint64_t delay_ms =
      std::max<uint64_t>(20, static_cast<uint64_t>(10.0 * healthy_p50_ms));

  auto arm_slow_replica = [delay_ms] {
    lake::FaultSpec spec;
    spec.kind = lake::FaultSpec::Kind::kDelay;
    spec.arg = delay_ms;
    spec.max_fires = 0;  // persistent: every sub-query on this replica
    lake::FailpointRegistry::Instance().Arm("cluster.exec.0.0", spec);
  };

  // Without hedging: failover-only cluster eats the full delay whenever
  // round-robin lands the slow primary.
  double p99_without = 0;
  {
    ClusterEngine plain(lake.catalog, base_options());
    arm_slow_replica();
    TailRun run = ReplayTail(plain, topics, kTailWarmup, kTailQueries);
    lake::FailpointRegistry::Instance().ClearAll();
    std::sort(run.ms.begin(), run.ms.end());
    p99_without = Percentile(run.ms, 0.99);
  }

  // With the tail layer: hedges race the fast sibling while the slow
  // outlier accumulates samples, then ejection takes it out of the
  // rotation entirely.
  ClusterEngine::Options tail_opts = base_options();
  tail_opts.tail.enable_hedging = true;
  tail_opts.tail.hedge_min_delay = std::chrono::milliseconds(1);
  tail_opts.tail.hedge_max_delay = std::chrono::milliseconds(
      std::max<uint64_t>(2, delay_ms / 4));
  tail_opts.tail.replica.eject_multiple = 3.0;
  tail_opts.tail.replica.eject_min_samples = 16;
  ClusterEngine hedged(lake.catalog, tail_opts);
  arm_slow_replica();
  TailRun hedged_run = ReplayTail(hedged, topics, kTailWarmup, kTailQueries);
  lake::FailpointRegistry::Instance().ClearAll();

  bool exact = hedged_run.sigs.size() == healthy_sigs.size();
  for (size_t i = 0; exact && i < healthy_sigs.size(); ++i) {
    exact = hedged_run.sigs[i] == healthy_sigs[i];
  }
  std::sort(hedged_run.ms.begin(), hedged_run.ms.end());
  const double p99_with = Percentile(hedged_run.ms, 0.99);
  const double p99_ratio = p99_without > 0 ? p99_with / p99_without : 0;

  const ClusterEngine::TailStats stats = hedged.tail_stats();
  const double hedge_win_rate =
      stats.hedges_dispatched > 0
          ? static_cast<double>(stats.hedges_won) /
                static_cast<double>(stats.hedges_dispatched)
          : 0;
  // Duplicated sub-queries (hedges + budget-funded retries) as a fraction
  // of primary volume; the budget bounds this at ratio (0.1) plus the
  // min_tokens floor amortized over the run's windows.
  const double dup_fraction =
      stats.budget_requests > 0
          ? static_cast<double>(stats.budget_acquired) /
                static_cast<double>(stats.budget_requests)
          : 0;
  const bool dup_ok = dup_fraction <= 0.15;
  size_t ejections = 0;
  for (const auto& sh : hedged.Health()) {
    for (const auto& rh : sh.replicas) ejections += rh.slow_ejections;
  }

  std::printf(
      "slow replica (shard 0, +%llums per sub-query, ~10x healthy p50 "
      "%.3fms): p99 without hedging %.3fms -> with %.3fms (%.2fx)\n"
      "hedges %llu dispatched, %llu won (win rate %.2f); budget: %llu/%llu "
      "extras granted (dup fraction %.3f, denied %llu); ejections %zu; "
      "results exact=%d\n",
      static_cast<unsigned long long>(delay_ms), healthy_p50_ms, p99_without,
      p99_with, p99_ratio,
      static_cast<unsigned long long>(stats.hedges_dispatched),
      static_cast<unsigned long long>(stats.hedges_won), hedge_win_rate,
      static_cast<unsigned long long>(stats.budget_acquired),
      static_cast<unsigned long long>(stats.budget_requests), dup_fraction,
      static_cast<unsigned long long>(stats.budget_denied), ejections,
      exact ? 1 : 0);
  lake::bench::PrintJsonLine(
      "E23:bench_serve:tail",
      StrFormat("\"shards\":2,\"replicas\":2,\"slow_delay_ms\":%llu,"
                "\"p99_without_ms\":%.3f,\"p99_with_ms\":%.3f,"
                "\"p99_ratio\":%.2f,\"hedges\":%llu,\"hedge_wins\":%llu,"
                "\"hedge_win_rate\":%.2f,\"dup_fraction\":%.3f,"
                "\"budget_denied\":%llu,\"ejections\":%zu,\"exact\":%d",
                static_cast<unsigned long long>(delay_ms), p99_without,
                p99_with, p99_ratio,
                static_cast<unsigned long long>(stats.hedges_dispatched),
                static_cast<unsigned long long>(stats.hedges_won),
                hedge_win_rate, dup_fraction,
                static_cast<unsigned long long>(stats.budget_denied),
                ejections, exact ? 1 : 0));

  const bool pass = p99_ratio <= 0.5 && exact && dup_ok;
  std::printf("\nE23 %s: p99 ratio %.2f (need <= 0.5), exact=%d, "
              "dup fraction %.3f (need <= 0.15)\n",
              pass ? "PASS" : "FAIL", p99_ratio, exact ? 1 : 0, dup_fraction);
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool tail_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--tail") tail_mode = true;
  }

  GeneratorOptions gopts;
  gopts.seed = 23;
  gopts.num_domains = 8;
  gopts.num_templates = 4;
  gopts.tables_per_template = 6;
  gopts.min_rows = 40;
  gopts.max_rows = 100;
  GeneratedLake lake = LakeGenerator(gopts).Generate();

  DiscoveryEngine::Options eopts;
  eopts.build_pexeso = false;
  eopts.build_mate = false;
  eopts.build_tus = false;
  eopts.build_santos = false;
  eopts.build_d3l = false;
  eopts.build_correlated = false;
  eopts.synthesize_kb = false;
  eopts.train_annotator = false;

  if (tail_mode) return RunTailCell(lake, eopts);
  RunOverloadSweep(lake, eopts);
  return 0;
}
