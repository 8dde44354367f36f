// lookup_hot: a discovery service's repeated lookups in live mode.
//
// A QueryService over a LiveEngine whose base and delta build the
// join/keyword set (keyword, exact, LSH Ensemble, JOSIE, approx). About 5%
// of the lake is ingested into the delta before the service opens. Two
// closed-loop clients draw Zipf(1.0) over a fixed pool of distinct
// queries, two thirds JOSIE joins on value subsets of lake columns, the
// rest keyword queries. Each distinct query belongs to one client, and the
// cache never evicts, so the hit/miss split is a pure function of the seed.
#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <unordered_map>

#include "approx/oracle.h"
#include "bench.h"
#include "ingest/live_engine.h"
#include "lakegen/generator.h"
#include "layers.h"
#include "reference.h"
#include "search/join_josie.h"
#include "serve/query_service.h"
#include "util/random.h"

namespace perfbench {

namespace {

using lake::DiscoveryEngine;
using lake::ingest::LiveEngine;
using lake::serve::QueryKind;
using lake::serve::QueryRequest;
using lake::serve::QueryResponse;
using lake::serve::QueryService;

constexpr size_t kDomains = 24;
constexpr size_t kTemplates = 12;
constexpr size_t kTablesPerTemplate = 160;
constexpr size_t kStringColumns = 3;
constexpr size_t kDistinctQueries = 12000;
constexpr double kJoinShare = 0.7;
constexpr size_t kMinJoinValues = 8;
constexpr size_t kMaxJoinValues = 24;
constexpr double kDeltaShare = 0.05;
constexpr double kZipfExponent = 1.0;
/// Operations per second of --seconds: the run is a fixed sequence of
/// seconds * kOpsPerSecond operations split into kRepetitions identical
/// phases, never a time-boxed loop.
constexpr size_t kOpsPerSecond = 50000;
constexpr size_t kClients = 2;
constexpr size_t kTopK = 10;
constexpr int kSetups = 3;
/// Traced run: every kTraceEvery-th operation is re-issued layer by layer.
constexpr size_t kTraceEvery = 64;

DiscoveryEngine::Options EngineOptions() {
  DiscoveryEngine::Options o;
  o.build_pexeso = false;
  o.build_mate = false;
  o.build_correlated = false;
  o.build_tus = false;
  o.build_santos = false;
  o.build_starmie = false;
  o.build_d3l = false;
  o.synthesize_kb = false;
  o.train_annotator = false;
  return o;
}

struct Query {
  bool join = false;
  std::vector<std::string> values;
  std::string keyword;
};

QueryRequest ToRequest(const Query& q) {
  QueryRequest req;
  req.k = kTopK;
  if (q.join) {
    req.kind = QueryKind::kJoin;
    req.join_method = lake::JoinMethod::kJosie;
    req.values = q.values;
  } else {
    req.kind = QueryKind::kKeyword;
    req.keyword = q.keyword;
  }
  return req;
}

std::vector<Query> MakeQueries(const lake::GeneratedLake& lake, uint64_t seed) {
  lake::Rng rng = lake::Rng(seed).Fork("lookup_hot.queries");
  const lake::DataLakeCatalog& catalog = lake.catalog;
  std::vector<lake::ColumnRef> string_cols;
  catalog.ForEachColumn([&](const lake::ColumnRef& ref, const lake::Column& c) {
    if (!c.IsNumeric()) string_cols.push_back(ref);
  });
  std::vector<Query> out;
  std::set<std::vector<std::string>> seen_values;
  std::set<std::string> seen_keywords;
  while (out.size() < kDistinctQueries) {
    Query q;
    if (rng.NextUnit() < kJoinShare) {
      const lake::ColumnRef ref =
          string_cols[rng.NextBounded(string_cols.size())];
      std::vector<std::string> distinct = catalog.column(ref).DistinctStrings();
      if (distinct.size() < kMinJoinValues) continue;
      rng.Shuffle(distinct);
      // A narrow size range keeps the cost of a miss, and with it
      // query_p99_ms (which falls among the misses), from swinging with
      // the few queries that land in the tail.
      const size_t size =
          std::min(distinct.size(),
                   kMinJoinValues +
                       rng.NextBounded(kMaxJoinValues - kMinJoinValues + 1));
      distinct.resize(size);
      std::sort(distinct.begin(), distinct.end());
      if (!seen_values.insert(distinct).second) continue;
      q.join = true;
      q.values = std::move(distinct);
    } else {
      const lake::Table& t = catalog.table(
          static_cast<lake::TableId>(rng.NextBounded(catalog.num_tables())));
      const lake::Column& c = t.column(rng.NextBounded(t.num_columns()));
      std::string kw = lake.topic_of[rng.NextBounded(lake.topic_of.size())] +
                       " " + c.name() + " " +
                       std::to_string(rng.NextBounded(kTablesPerTemplate));
      if (!seen_keywords.insert(kw).second) continue;
      q.keyword = std::move(kw);
    }
    out.push_back(std::move(q));
  }
  return out;
}

/// The serving stack of one setup. Members are destroyed bottom-up: the
/// service drains before the engine it serves goes away.
struct Stack {
  lake::serve::MetricsRegistry ingest_metrics;
  std::shared_ptr<const DiscoveryEngine> base;
  std::unique_ptr<LiveEngine> live;
  std::unique_ptr<QueryService> service;
};

struct OpRecord {
  uint32_t query = 0;
  double ms = 0;
  bool ok = false;
  bool hit = false;
  uint64_t digest = 0;
};

struct PhaseResult {
  std::vector<OpRecord> ops;  // global operation order
  double wall_s = 0;
  /// First answer of each query (always a miss), by query id.
  std::unordered_map<uint32_t, QueryResponse> first;
};

/// Per-request layer timings of the traced run.
struct LayerSample {
  bool join = false;
  double index_us = 0;   // JosieJoinSearch::Search
  double engine_us = 0;  // DiscoveryEngine method on the base
  double merged_us = 0;  // ingest::Merged* on the acquired generation
  double execute_us = 0; // QueryService::Execute, cache bypassed
  lake::JosieIndex::QueryStats josie;
  lake::ingest::MergeStats merge;
};

class LookupHot {
 public:
  explicit LookupHot(const Args& args) : args_(args) {
    report_.workload = "lookup_hot";
    lake::GeneratorOptions g;
    g.seed = args.seed;
    g.num_domains = kDomains;
    g.num_templates = kTemplates;
    g.tables_per_template = kTablesPerTemplate;
    // Every template gets the same column count, so the lake's size, and
    // with it set-up and query cost, does not swing with the seed.
    g.min_string_columns = g.max_string_columns = kStringColumns;
    lake_ = lake::LakeGenerator(g).Generate();
    for (lake::TableId id : lake_.catalog.AllTables()) {
      all_tables_.push_back(&lake_.catalog.table(id));
    }
    // A seeded 5% of the lake arrives through ingestion; the rest is base.
    std::vector<lake::TableId> ids = lake_.catalog.AllTables();
    lake::Rng rng = lake::Rng(args.seed).Fork("lookup_hot.delta");
    rng.Shuffle(ids);
    const size_t num_delta =
        static_cast<size_t>(kDeltaShare * static_cast<double>(ids.size()));
    std::vector<bool> is_delta(lake_.catalog.num_tables(), false);
    for (size_t i = 0; i < num_delta; ++i) is_delta[ids[i]] = true;
    auto base = std::make_shared<lake::DataLakeCatalog>();
    for (lake::TableId id : lake_.catalog.AllTables()) {
      if (is_delta[id]) {
        delta_tables_.push_back(lake_.catalog.table(id));
      } else {
        base->AddTable(lake_.catalog.table(id));
      }
    }
    base_catalog_ = std::move(base);
    queries_ = MakeQueries(lake_, args.seed);
    // Zipf ranks map to queries through a seeded permutation, so the
    // popular queries are a random mix of joins and keyword lookups.
    std::vector<uint32_t> perm(queries_.size());
    for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
    lake::Rng draw = lake::Rng(args.seed).Fork("lookup_hot.draws");
    draw.Shuffle(perm);
    lake::ZipfSampler zipf(queries_.size(), kZipfExponent);
    sequence_.resize(static_cast<size_t>(args.seconds) * kOpsPerSecond /
                     kRepetitions);
    for (uint32_t& q : sequence_) q = perm[zipf.Sample(draw)];
  }

  Report Run() {
    if (args_.trace) {
      RunTraced();
    } else {
      RunUntraced();
    }
    report_.record["lake_digest"] = Hex(LakeDigest(all_tables_));
    return std::move(report_);
  }

 private:
  std::unique_ptr<Stack> Setup(bool with_hook) {
    auto stack = std::make_unique<Stack>();
    const Clock::time_point start = Clock::now();
    stack->base = std::make_shared<const DiscoveryEngine>(
        base_catalog_.get(), &lake_.kb, EngineOptions());
    LiveEngine::Options lo;
    lo.base_options = EngineOptions();
    lo.delta_options = EngineOptions();
    lo.kb = &lake_.kb;
    lo.metrics = &stack->ingest_metrics;
    stack->live = std::make_unique<LiveEngine>(base_catalog_, stack->base, lo);
    LiveEngine::Batch batch;
    batch.adds = delta_tables_;
    const LiveEngine::BatchOutcome outcome =
        stack->live->ApplyBatch(std::move(batch));
    for (const auto& add : outcome.adds) {
      if (!add.ok()) throw BenchError("delta ingest failed: " +
                                      add.status().ToString());
    }
    QueryService::Options so;
    so.num_workers = kClients;
    so.cache.capacity_bytes = size_t{1} << 30;  // never evicts
    if (with_hook) hooks_.Install(&so);
    stack->service = std::make_unique<QueryService>(stack->live.get(), so);
    if (with_hook) hooks_.Attach(stack->service.get());
    setup_s_.push_back(MsSince(start) / 1000.0);
    return stack;
  }

  /// Runs the fixed operation sequence with `clients` closed-loop clients.
  /// Query q belongs to client q % kClients (with one client, to it).
  PhaseResult RunPhase(Stack& stack, size_t clients, bool traced) {
    PhaseResult out;
    out.ops.resize(sequence_.size());
    std::vector<std::unordered_map<uint32_t, QueryResponse>> firsts(clients);
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (size_t t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < sequence_.size(); ++i) {
          const uint32_t q = sequence_[i];
          if (q % clients != t) continue;
          QueryRequest req = ToRequest(queries_[q]);
          const Clock::time_point submitted = Clock::now();
          QueryResponse resp = stack.service->Execute(std::move(req));
          const Clock::time_point done = Clock::now();
          OpRecord& rec = out.ops[i];
          rec.query = q;
          rec.ms = UsBetween(submitted, done) / 1000.0;
          rec.ok = FullAnswer(resp);
          rec.hit = resp.cache_hit;
          rec.digest = ResponseDigest(resp);
          if (traced) TraceOp(stack, i, q, submitted, done, resp.cache_hit);
          if (!resp.cache_hit && firsts[t].count(q) == 0) {
            firsts[t].emplace(q, std::move(resp));
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    out.wall_s = MsSince(start) / 1000.0;
    for (auto& f : firsts) out.first.merge(f);
    return out;
  }

  /// Traced run: splits this request's queue wait and hit time with the
  /// pre-execute hook and, for a sample, re-issues it one layer down at a
  /// time, innermost first, under the same request id.
  void TraceOp(Stack& stack, size_t op, uint32_t q,
               Clock::time_point submitted, Clock::time_point done, bool hit) {
    Clock::time_point hooked;
    if (!hooks_.Take(ToRequest(queries_[q]), &hooked)) return;
    const int64_t root =
        tracer_.Record("serve.execute", submitted, done, op, -1);
    tracer_.Record("serve.queue", submitted, hooked, op, root);
    {
      std::lock_guard<std::mutex> lock(trace_mu_);
      queue_us_.push_back(UsBetween(submitted, hooked));
      if (hit) hit_us_.push_back(UsBetween(hooked, done));
    }
    if (op % kTraceEvery != 0) return;

    const Query& query = queries_[q];
    LayerSample s;
    s.join = query.join;
    QueryRequest bypass = ToRequest(query);
    bypass.bypass_cache = true;
    // One untimed pass warms the caches, so no layer pays for the first touch.
    (void)stack.service->Execute(bypass);
    Clock::time_point unused;
    hooks_.Take(bypass, &unused);
    auto gen = stack.live->Acquire();
    const DiscoveryEngine& base = gen->base();
    auto engine_call = [&] {
      if (query.join) {
        (void)base.Joinable(query.values, lake::JoinMethod::kJosie, kTopK);
      } else {
        (void)base.Keyword(query.keyword, kTopK);
      }
    };
    engine_call();  // warms this thread's caches too
    int64_t index_span = -1;
    if (query.join) {
      const Clock::time_point a = Clock::now();
      (void)base.josie_join()->Search(query.values, kTopK, &s.josie);
      const Clock::time_point b = Clock::now();
      s.index_us = UsBetween(a, b);
      index_span = tracer_.Record("index.josie.search", a, b, op, -1);
    }
    Clock::time_point a = Clock::now();
    engine_call();
    Clock::time_point b = Clock::now();
    s.engine_us = UsBetween(a, b);
    const int64_t engine_span = tracer_.Record(
        query.join ? "search.join.josie" : "search.keyword", a, b, op, -1);
    if (index_span >= 0) tracer_.SetParent(index_span, engine_span);
    a = Clock::now();
    if (query.join) {
      (void)lake::ingest::MergedJoinable(*gen, query.values,
                                         lake::JoinMethod::kJosie, kTopK,
                                         nullptr, &s.merge);
    } else {
      (void)lake::ingest::MergedKeyword(*gen, query.keyword, kTopK, &s.merge);
    }
    b = Clock::now();
    s.merged_us = UsBetween(a, b);
    const int64_t merged_span = tracer_.Record("ingest.merged", a, b, op, -1);
    tracer_.SetParent(engine_span, merged_span);
    a = Clock::now();
    (void)stack.service->Execute(bypass);
    b = Clock::now();
    hooks_.Take(bypass, &unused);
    s.execute_us = UsBetween(a, b);
    const int64_t execute_span =
        tracer_.Record("serve.execute.bypass", a, b, op, root);
    tracer_.SetParent(merged_span, execute_span);
    std::lock_guard<std::mutex> lock(trace_mu_);
    samples_.push_back(s);
  }

  void RunUntraced() {
    std::unique_ptr<Stack> stack;
    for (int i = 0; i < kSetups; ++i) {
      stack.reset();
      stack = Setup(/*with_hook=*/false);
    }
    // Each repetition replays the same sequence against an emptied cache.
    std::vector<PhaseResult> phases;
    std::vector<PhaseStats> reps;
    for (int r = 0; r < kRepetitions; ++r) {
      if (r > 0) stack->service->InvalidateCache();
      phases.push_back(RunPhase(*stack, kClients, /*traced=*/false));
      reps.push_back(PhaseMetrics(phases.back()));
    }
    AssertTimingIndependent(&report_, stack->service->metrics(), nullptr);
    Check(*stack, phases);
    for (auto& [name, m] : MedianAcross(reps)) {
      (name == "hit_p50_ms" ? report_.extra : report_.e2e)[name] = m;
    }
    report_.e2e["setup_s"] = {Median(setup_s_), "s", setup_s_.size()};
  }

  /// Checks every answer of every repetition; the first repetition's miss
  /// answers against the references.
  void Check(Stack& stack, const std::vector<PhaseResult>& phases) {
    const PhaseResult& phase = phases.front();
    auto gen = stack.live->Acquire();
    auto name_of = [&](lake::TableId id) {
      auto name = gen->TableName(id);
      return name.ok() ? name.value() : std::string("?");
    };
    // The reference is validated against the brute-force oracle first.
    OverlapReference reference(all_tables_);
    lake::approx::DiscoveryOracle oracle(&lake_.catalog);
    size_t validated = 0;
    for (const Query& q : queries_) {
      if (!q.join || validated == 8) continue;
      ++validated;
      std::vector<Hit> from_oracle;
      for (const lake::ColumnResult& c : oracle.TopKByOverlap(q.values, kTopK)) {
        from_oracle.push_back({lake_.catalog.table(c.column.table_id).name(),
                               c.column.column_index, c.score});
      }
      auto truth = [&](const Hit& h) {
        return reference.OverlapOf(q.values, h.table, h.column);
      };
      if (!TieAwareEqual(from_oracle, reference.TopK(q.values, kTopK), truth)) {
        report_.Fail("overlap reference disagrees with DiscoveryOracle");
      }
    }

    uint64_t checked = 0;
    uint64_t exact = 0;
    std::unordered_map<uint32_t, uint64_t> first_digest;
    for (const auto& [q, resp] : phase.first) {
      first_digest[q] = ResponseDigest(resp);
      const Query& query = queries_[q];
      std::vector<Hit> got;
      std::vector<Hit> want;
      bool match = false;
      if (query.join) {
        for (const lake::ColumnResult& c : resp.columns) {
          got.push_back({name_of(c.column.table_id), c.column.column_index,
                         c.score});
        }
        want = reference.TopK(query.values, kTopK);
        match = TieAwareEqual(got, want, [&](const Hit& h) {
          return reference.OverlapOf(query.values, h.table, h.column);
        });
      } else {
        for (const lake::TableResult& t : resp.tables) {
          got.push_back({name_of(t.table_id), 0, t.score});
        }
        for (const lake::TableResult& t :
             lake::ingest::MergedKeyword(*gen, query.keyword, kTopK)) {
          want.push_back({name_of(t.table_id), 0, t.score});
        }
        match = AnswerDigest(got) == AnswerDigest(want);
      }
      ++checked;
      if (match) {
        ++exact;
      } else {
        report_.Fail("query " + std::to_string(q) + " answer " +
                     DescribeHits(got) + " != reference " + DescribeHits(want));
      }
    }
    // Every later answer must repeat its query's first (miss) answer: the
    // cache hits, and every operation of the repeated phases.
    uint64_t ok = 0;
    uint64_t attempted = 0;
    std::vector<uint64_t> hits(phases.size(), 0);
    for (size_t r = 0; r < phases.size(); ++r) {
      for (const OpRecord& op : phases[r].ops) {
        ++attempted;
        if (op.ok) ++ok;
        if (op.hit) ++hits[r];
        if (r == 0 && !op.hit) continue;
        ++checked;
        auto it = first_digest.find(op.query);
        if (it != first_digest.end() && it->second == op.digest) {
          ++exact;
        } else {
          report_.Fail("query " + std::to_string(op.query) +
                       " answered differently from its first answer");
        }
      }
      if (hits[r] != hits[0]) {
        report_.Fail("cache hits differ between repetitions: " +
                     std::to_string(hits[r]) + " vs " +
                     std::to_string(hits[0]));
      }
    }
    uint64_t answer_digest = 0;
    for (const auto& [q, d] : first_digest) answer_digest += Mix(q, d);
    RecordOutcome(&report_, attempted, ok, checked, exact, answer_digest);
    report_.record["hits"] = std::to_string(hits[0]);
    report_.record["misses"] = std::to_string(phases[0].ops.size() - hits[0]);
  }

  /// One repetition's end-to-end latency and throughput metrics.
  PhaseStats PhaseMetrics(const PhaseResult& phase) const {
    std::vector<double> all, hits, misses, joins;
    size_t ok = 0;
    for (const OpRecord& op : phase.ops) {
      all.push_back(op.ms);
      (op.hit ? hits : misses).push_back(op.ms);
      if (queries_[op.query].join) joins.push_back(op.ms);
      if (op.ok) ++ok;
    }
    PhaseStats m;
    const std::string& w = report_.workload;
    m.metrics["throughput_qps"] = {static_cast<double>(ok) / phase.wall_s,
                                   "1/s", phase.ops.size()};
    AddLatency(&m, w, "query_p50_ms", 0.5, all);
    AddLatency(&m, w, "query_p99_ms", 0.99, all);
    AddLatency(&m, w, "miss_p50_ms", 0.5, misses);
    AddLatency(&m, w, "join_p50_ms", 0.5, joins);
    AddLatency(&m, w, "hit_p50_ms", 0.5, hits);
    return m;
  }

  void RunTraced() {
    std::unique_ptr<Stack> stack = Setup(/*with_hook=*/true);
    // Untraced two-client baseline, then the traced pass, then one client.
    PhaseResult base = RunPhase(*stack, kClients, false);
    AssertTimingIndependent(&report_, stack->service->metrics(), nullptr);
    Check(*stack, {base});
    const auto cache = stack->service->cache().GetStats();
    const double hit_ratio = cache.hit_rate();
    const uint64_t evictions = cache.evictions;
    auto& sm = stack->service->metrics();
    const double base_hits =
        static_cast<double>(CounterValue(sm, "serve.ingest.base_hits"));
    const double delta_hits =
        static_cast<double>(CounterValue(sm, "serve.ingest.delta_hits"));
    stack->service->InvalidateCache();
    hooks_.Enable(true);
    PhaseResult traced = RunPhase(*stack, kClients, true);
    hooks_.Enable(false);
    stack->service->InvalidateCache();
    PhaseResult single = RunPhase(*stack, 1, false);

    const double qps2 = static_cast<double>(base.ops.size()) / base.wall_s;
    const double qps1 = static_cast<double>(single.ops.size()) / single.wall_s;
    const double qps_traced =
        static_cast<double>(traced.ops.size()) / traced.wall_s;

    auto& m = report_.layers;
    m["serve.queue_us"] = {Median(queue_us_), "us", queue_us_.size()};
    m["serve.hit_us"] = {Median(hit_us_), "us", hit_us_.size()};
    m["serve.cache_hit_ratio"] = {
        hit_ratio, "ratio", cache.hits + cache.misses};
    m["serve.cache_evictions"] = {static_cast<double>(evictions), "count", 1};
    m["serve.two_client_speedup"] = {qps2 / qps1, "ratio", 2};
    m["ingest.delta_hit_ratio"] = {
        delta_hits / (base_hits + delta_hits),
        "ratio",
        static_cast<uint64_t>(base_hits + delta_hits)};
    const auto publish =
        stack->ingest_metrics.GetHistogram("ingest.publish_ms")->Snap();
    m["ingest.publish_ms"] = {publish.mean() / 1000.0, "ms", publish.count};
    m["ingest.delta_tables_at_publish"] = {
        static_cast<double>(stack->live->num_delta_tables()), "count", 1};

    std::vector<double> overhead, merge, josie_engine, keyword_engine, index,
        postings, verified, tomb, join_self_index, join_self_search,
        join_self_ingest, join_self_serve;
    for (const LayerSample& s : samples_) {
      overhead.push_back(s.execute_us - s.merged_us);
      merge.push_back(s.merged_us - s.engine_us);
      tomb.push_back(static_cast<double>(s.merge.tombstone_filtered));
      if (s.join) {
        josie_engine.push_back(s.engine_us);
        index.push_back(s.index_us);
        postings.push_back(static_cast<double>(s.josie.posting_entries_read));
        verified.push_back(static_cast<double>(s.josie.candidates_verified));
      } else {
        keyword_engine.push_back(s.engine_us);
      }
    }
    m["serve.overhead_us"] = {Median(overhead), "us", overhead.size()};
    m["ingest.merge_us"] = {Median(merge), "us", merge.size()};
    m["ingest.tombstone_filtered"] = {
        std::accumulate(tomb.begin(), tomb.end(), 0.0), "count", tomb.size()};
    m["search.join.josie_us"] = {
        Median(josie_engine), "us", josie_engine.size()};
    m["search.keyword_us"] = {
        Median(keyword_engine), "us", keyword_engine.size()};
    m["index.josie.search_us"] = {Median(index), "us", index.size()};
    m["index.josie.postings_read"] = {Mean(postings), "count", postings.size()};
    m["index.josie.candidates_verified"] = {
        Mean(verified), "count", verified.size()};
    m["trace.overhead_ratio"] = {qps_traced / qps2, "ratio", 2};

    // Layer shares of request time over the re-issued joins: each layer's
    // self time is its call minus the next layer down.
    std::map<std::string, std::vector<double>> self;
    for (const LayerSample& s : samples_) {
      if (!s.join) continue;
      self["serve"].push_back(s.execute_us - s.merged_us);
      self["ingest"].push_back(s.merged_us - s.engine_us);
      self["search"].push_back(s.engine_us - s.index_us);
      self["index"].push_back(s.index_us);
    }
    report_.layer_shares = LayerShares(self);
    stack.reset();
    SetBuildBreakdown(&m, *base_catalog_, lake_.kb,
                        {"keyword", "exact", "lsh", "josie", "approx"});
    tracer_.WriteJsonl(args_.work_dir + "/spans-lookup_hot-" +
                       std::to_string(args_.seed) + ".jsonl");
  }

  Args args_;
  Report report_;
  lake::GeneratedLake lake_;
  std::vector<const lake::Table*> all_tables_;
  std::vector<lake::Table> delta_tables_;
  std::shared_ptr<const lake::DataLakeCatalog> base_catalog_;
  std::vector<Query> queries_;
  std::vector<uint32_t> sequence_;
  std::vector<double> setup_s_;

  // Traced-run state.
  HookTimes hooks_;
  std::mutex trace_mu_;
  std::vector<double> queue_us_;
  std::vector<double> hit_us_;
  std::vector<LayerSample> samples_;
  Tracer tracer_;
};

}  // namespace

Report RunLookupHot(const Args& args) { return LookupHot(args).Run(); }

}  // namespace perfbench
