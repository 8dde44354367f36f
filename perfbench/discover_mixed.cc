// discover_mixed: an analyst's exploratory session in frozen mode.
//
// A QueryService over one DiscoveryEngine built with default Options (all
// twelve modalities) on the union benchmark lake (templates, distractors,
// homographs). Two closed-loop clients send a weighted round-robin over
// eleven (kind, method) pairs with the cache bypassed, so every read pays
// search, index and embedding work. Setup is the full index build.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "approx/oracle.h"
#include "approx/verifier.h"
#include "bench.h"
#include "lakegen/generator.h"
#include "layers.h"
#include "reference.h"
#include "search/discovery_engine.h"
#include "search/join_correlated.h"
#include "search/join_josie.h"
#include "search/union_starmie.h"
#include "serve/query_service.h"
#include "util/random.h"

namespace perfbench {

namespace {

using lake::DiscoveryEngine;
using lake::JoinMethod;
using lake::UnionMethod;
using lake::serve::QueryKind;
using lake::serve::QueryRequest;
using lake::serve::QueryResponse;
using lake::serve::QueryService;

/// Union benchmark lake: 6 templates x kTablesPerTemplate + distractors.
constexpr size_t kTablesPerTemplate = 4;
constexpr size_t kDistractors = 12;
constexpr size_t kPoolSize = 256;  // distinct queries per non-union pair
/// Operations per second of --seconds, split into kPhases identical timed
/// phases whose per-metric medians are reported: a burst of noise from
/// outside the process then moves a minority of phases, not the value.
constexpr size_t kOpsPerSecond = 7000;
constexpr int kPhases = 7;
constexpr size_t kClients = 2;
constexpr size_t kTopK = 10;
constexpr int kSetups = 3;
constexpr size_t kTraceEvery = 4;

enum class Check { kOverlap, kContainment, kRecallContainment, kRecallStarmie,
                   kReplay };

struct PairSpec {
  const char* name;   // per-layer metric suffix
  QueryKind kind;
  JoinMethod join;
  UnionMethod union_method;
  int weight;         // share of the round-robin cycle
  Check check;
  /// kRecall* checks: the lowest acceptable mean recall@10 over the run.
  /// Measured over 16 seeds: LSH Ensemble 0.19-0.32, approx and Starmie
  /// 1.0; the approx floor is the one approx_calibration_test asserts.
  double recall_floor = 0;
};

/// The eleven (kind, method) pairs and their weights (per 111 reads). The
/// weights put every reported percentile in the middle of one latency
/// range, never on the edge between two ranges, where the share of reads on
/// either side would decide the value (see the guard in GuardedPercentile):
/// - exact containment (~0.07-0.2 ms) makes 63% of reads and keyword, JOSIE
///   and correlated reads (~0.02-0.15 ms) 30%, so query_p50_ms falls at
///   about containment's 32nd percentile and join_p50_ms (70 of 88 joins,
///   after 15 JOSIE joins) at about its 41st;
/// - the ~2-7 ms methods (LSH Ensemble, PEXESO, TUS, Starmie, D3L) make 5%
///   of reads, so query_p99_ms falls inside their bulk, above the tails of
///   the fast reads and below PEXESO's extreme tail, where noise from
///   outside the process is amplified;
/// - Starmie and TUS make 3 of 5 unions, so union_p50_ms falls inside them.
/// The ~2-7 ms methods take about two thirds of the clients' time.
const std::vector<PairSpec>& Pairs() {
  static const std::vector<PairSpec> pairs = {
      {"join.josie", QueryKind::kJoin, JoinMethod::kJosie, UnionMethod::kTus,
       15, Check::kOverlap},
      {"join.lsh", QueryKind::kJoin, JoinMethod::kLshEnsemble,
       UnionMethod::kTus, 1, Check::kRecallContainment, 0.15},
      {"join.containment", QueryKind::kJoin, JoinMethod::kExactContainment,
       UnionMethod::kTus, 70, Check::kContainment},
      {"join.approx", QueryKind::kJoin, JoinMethod::kApprox, UnionMethod::kTus,
       1, Check::kRecallContainment, 0.95},
      {"join.pexeso", QueryKind::kJoin, JoinMethod::kPexeso, UnionMethod::kTus,
       1, Check::kReplay},
      {"union.tus", QueryKind::kUnion, JoinMethod::kJosie, UnionMethod::kTus, 1,
       Check::kReplay},
      {"union.santos", QueryKind::kUnion, JoinMethod::kJosie,
       UnionMethod::kSantos, 1, Check::kReplay},
      {"union.starmie", QueryKind::kUnion, JoinMethod::kJosie,
       UnionMethod::kStarmie, 2, Check::kRecallStarmie, 0.95},
      {"union.d3l", QueryKind::kUnion, JoinMethod::kJosie, UnionMethod::kD3l, 1,
       Check::kReplay},
      {"keyword", QueryKind::kKeyword, JoinMethod::kJosie, UnionMethod::kTus,
       8, Check::kReplay},
      {"correlated", QueryKind::kCorrelated, JoinMethod::kJosie,
       UnionMethod::kTus, 10, Check::kReplay},
  };
  return pairs;
}

std::string FixedDigits(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12f", v);
  return buf;
}

struct Query {
  std::vector<std::string> values;
  std::vector<double> numbers;
  lake::TableId table = 0;
  std::string keyword;
};

struct OpRecord {
  uint16_t pair = 0;
  uint16_t query = 0;
  double ms = 0;
  bool ok = false;
  uint64_t digest = 0;
};

/// Per-request layer timings of the traced run.
struct LayerSample {
  uint16_t pair = 0;
  double index_us = 0;   // JosieJoinSearch::Search (JOSIE only)
  double engine_us = 0;  // DiscoveryEngine method
  double execute_us = 0; // QueryService::Execute, issued again
  lake::JosieIndex::QueryStats josie;
  lake::approx::ApproxQueryStats approx;
};

class DiscoverMixed {
 public:
  explicit DiscoverMixed(const Args& args) : args_(args) {
    report_.workload = "discover_mixed";
    // MakeUnionBenchmarkLake's options (templates, distractors, homographs)
    // with the table shape pinned: on a 36-table lake, the seed-drawn
    // column and row counts would otherwise swing the full index build
    // (PEXESO above all) by tens of percent from seed to seed.
    lake::GeneratorOptions g;
    g.seed = args.seed;
    g.num_domains = 14;
    g.values_per_domain = 250;
    g.num_templates = 6;
    g.tables_per_template = kTablesPerTemplate;
    g.distractor_tables = kDistractors;
    g.homograph_count = 6;
    g.min_string_columns = g.max_string_columns = 3;
    g.min_rows = g.max_rows = 100;
    lake_ = lake::LakeGenerator(g).Generate();
    for (lake::TableId id : lake_.catalog.AllTables()) {
      tables_.push_back(&lake_.catalog.table(id));
    }
    MakePools();
    // Smooth weighted round-robin: each slot goes to the pair with the
    // largest accumulated credit, so a pair's queries are spread evenly.
    const std::vector<PairSpec>& pairs = Pairs();
    int total = 0;
    for (const PairSpec& p : pairs) total += p.weight;
    std::vector<int> credit(pairs.size(), 0);
    std::vector<uint16_t> cycle;
    for (int slot = 0; slot < total; ++slot) {
      size_t best = 0;
      for (size_t p = 0; p < pairs.size(); ++p) {
        credit[p] += pairs[p].weight;
        if (credit[p] > credit[best]) best = p;
      }
      credit[best] -= total;
      cycle.push_back(static_cast<uint16_t>(best));
    }
    std::vector<size_t> next(pairs.size(), 0);
    const size_t n =
        static_cast<size_t>(args.seconds) * kOpsPerSecond / kPhases;
    for (size_t i = 0; i < n; ++i) {
      const uint16_t p = cycle[i % cycle.size()];
      sequence_.push_back(
          {p, static_cast<uint16_t>(next[p]++ % pools_[p].size())});
    }
  }

  Report Run() {
    std::unique_ptr<DiscoveryEngine> engine;
    const int setups = args_.trace ? 1 : kSetups;
    std::vector<double> setup_s;
    for (int i = 0; i < setups; ++i) {
      engine.reset();
      const Clock::time_point start = Clock::now();
      engine = std::make_unique<DiscoveryEngine>(&lake_.catalog, &lake_.kb,
                                                 DiscoveryEngine::Options{});
      setup_s.push_back(MsSince(start) / 1000.0);
    }
    QueryService::Options so;
    so.num_workers = kClients;
    if (args_.trace) hooks_.Install(&so);
    QueryService service(engine.get(), so);
    hooks_.Attach(&service);

    // Untraced runs repeat the timed phase and report per-metric medians.
    std::vector<Phase> phases;
    std::vector<PhaseStats> reps;
    for (int r = 0; r < (args_.trace ? 1 : kPhases); ++r) {
      phases.push_back(RunPhase(service, *engine, false));
      if (!args_.trace) reps.push_back(PhaseMetrics(phases.back()));
    }
    AssertTimingIndependent(&report_, service.metrics(), nullptr);
    CheckAnswers(*engine, phases);
    const Phase& phase = phases.front();
    if (args_.trace) {
      hooks_.Enable(true);
      Phase traced = RunPhase(service, *engine, true);
      hooks_.Enable(false);
      Trace(phase, traced);
      // The per-modality build breakdown runs last, outside every phase.
      SetBuildBreakdown(
          &report_.layers, lake_.catalog, lake_.kb,
          {"keyword", "exact", "lsh", "josie", "approx", "pexeso", "mate",
           "correlated", "tus", "santos", "starmie", "d3l", "kb"});
      tracer_.WriteJsonl(args_.work_dir + "/spans-discover_mixed-" +
                         std::to_string(args_.seed) + ".jsonl");
    } else {
      report_.e2e["setup_s"] = {Median(setup_s), "s", setup_s.size()};
      for (auto& [name, m] : MedianAcross(reps)) {
        (name == "union_p50_ms" ? report_.extra : report_.e2e)[name] = m;
      }
    }
    report_.record["lake_digest"] = Hex(LakeDigest(tables_));
    return std::move(report_);
  }

 private:
  struct Phase {
    std::vector<OpRecord> ops;
    double wall_s = 0;
    std::map<std::pair<uint16_t, uint16_t>, QueryResponse> first;
  };

  void MakePools() {
    lake::Rng rng = lake::Rng(args_.seed).Fork("discover_mixed.queries");
    const lake::DataLakeCatalog& catalog = lake_.catalog;
    std::vector<lake::ColumnRef> string_cols;
    std::vector<std::pair<lake::ColumnRef, uint32_t>> correlated_cols;
    for (lake::TableId id : catalog.AllTables()) {
      const lake::Table& t = catalog.table(id);
      int key = -1;
      for (size_t c = 0; c < t.num_columns(); ++c) {
        const lake::ColumnRef ref{id, static_cast<uint32_t>(c)};
        if (t.column(c).IsNumeric()) {
          if (key >= 0) {
            correlated_cols.push_back(
                {{id, static_cast<uint32_t>(key)}, static_cast<uint32_t>(c)});
          }
        } else {
          string_cols.push_back(ref);
          if (key < 0) key = static_cast<int>(c);
        }
      }
    }
    for (const PairSpec& spec : Pairs()) {
      std::vector<Query> pool;
      // A union query is a lake table, so its pool is every table once.
      std::vector<lake::TableId> tables = catalog.AllTables();
      rng.Shuffle(tables);
      const size_t pool_size =
          spec.kind == QueryKind::kUnion ? tables.size() : kPoolSize;
      for (size_t i = 0; i < pool_size; ++i) {
        Query q;
        switch (spec.kind) {
          case QueryKind::kJoin: {
            const lake::ColumnRef ref =
                string_cols[rng.NextBounded(string_cols.size())];
            std::vector<std::string> v = catalog.column(ref).DistinctStrings();
            rng.Shuffle(v);
            v.resize(std::min<size_t>(v.size(), 8 + rng.NextBounded(33)));
            q.values = std::move(v);
            break;
          }
          case QueryKind::kUnion:
            q.table = tables[i];
            break;
          case QueryKind::kKeyword: {
            const lake::Table& t = catalog.table(static_cast<lake::TableId>(
                rng.NextBounded(catalog.num_tables())));
            q.keyword = lake_.topic_of[rng.NextBounded(lake_.topic_of.size())] +
                        " " + t.column(rng.NextBounded(t.num_columns())).name();
            break;
          }
          case QueryKind::kCorrelated: {
            const auto& [key, num] =
                correlated_cols[rng.NextBounded(correlated_cols.size())];
            const lake::Table& t = catalog.table(key.table_id);
            for (size_t r = 0; r < t.num_rows(); ++r) {
              const lake::Value& k = t.column(key.column_index).cell(r);
              double x = 0;
              if (k.is_null() || !t.column(num).cell(r).ToDouble(&x)) continue;
              q.values.push_back(k.ToString());
              q.numbers.push_back(x + rng.NextGaussian());
            }
            break;
          }
        }
        pool.push_back(std::move(q));
      }
      pools_.push_back(std::move(pool));
    }
  }

  QueryRequest ToRequest(uint16_t pair, uint16_t query) const {
    const PairSpec& spec = Pairs()[pair];
    const Query& q = pools_[pair][query];
    QueryRequest req;
    req.kind = spec.kind;
    req.join_method = spec.join;
    req.union_method = spec.union_method;
    req.k = kTopK;
    req.bypass_cache = true;
    req.values = q.values;
    req.numeric_values = q.numbers;
    req.keyword = q.keyword;
    if (spec.kind == QueryKind::kUnion) {
      req.union_table = &lake_.catalog.table(q.table);
      req.exclude = static_cast<int64_t>(q.table);
    }
    return req;
  }

  Phase RunPhase(QueryService& service, const DiscoveryEngine& engine,
                 bool traced) {
    Phase out;
    out.ops.resize(sequence_.size());
    std::mutex first_mu;
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (size_t t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < sequence_.size(); i += kClients) {
          const auto [pair, query] = sequence_[i];
          const Clock::time_point submitted = Clock::now();
          QueryResponse resp = service.Execute(ToRequest(pair, query));
          const Clock::time_point done = Clock::now();
          OpRecord& rec = out.ops[i];
          rec.pair = pair;
          rec.query = query;
          rec.ms = UsBetween(submitted, done) / 1000.0;
          rec.ok = FullAnswer(resp, Pairs()[pair].join == JoinMethod::kApprox &&
                                        Pairs()[pair].kind == QueryKind::kJoin);
          rec.digest = ResponseDigest(resp);
          if (traced) {
            TraceOp(service, engine, i, pair, query, submitted, done);
            continue;
          }
          std::lock_guard<std::mutex> lock(first_mu);
          out.first.try_emplace({pair, query}, std::move(resp));
        }
      });
    }
    for (std::thread& th : threads) th.join();
    out.wall_s = MsSince(start) / 1000.0;
    return out;
  }

  void TraceOp(QueryService& service, const DiscoveryEngine& engine,
               size_t op, uint16_t pair, uint16_t query,
               Clock::time_point submitted, Clock::time_point done) {
    const QueryRequest req = ToRequest(pair, query);
    Clock::time_point hooked;
    if (!hooks_.Take(req, &hooked)) return;
    const int64_t root =
        tracer_.Record("serve.execute", submitted, done, op, -1);
    tracer_.Record("serve.queue", submitted, hooked, op, root);
    {
      std::lock_guard<std::mutex> lock(trace_mu_);
      queue_us_.push_back(UsBetween(submitted, hooked));
    }
    // Every kTraceEvery-th query of a pair is re-issued layer by layer, and
    // every query of a pair rarer than that, so every pair is sampled.
    const PairSpec& spec = Pairs()[pair];
    if (spec.weight >= static_cast<int>(kTraceEvery) &&
        query % kTraceEvery != 0) {
      return;
    }
    const Query& q = pools_[pair][query];
    LayerSample s;
    s.pair = pair;
    auto engine_call = [&](lake::approx::ApproxQueryStats* approx) {
      switch (spec.kind) {
        case QueryKind::kJoin:
          (void)engine.Joinable(q.values, spec.join, kTopK, nullptr, -1,
                                approx);
          break;
        case QueryKind::kUnion:
          (void)engine.Unionable(lake_.catalog.table(q.table),
                                 spec.union_method, kTopK,
                                 static_cast<int64_t>(q.table));
          break;
        case QueryKind::kKeyword:
          (void)engine.Keyword(q.keyword, kTopK);
          break;
        case QueryKind::kCorrelated:
          (void)engine.correlated_join()->Search(q.values, q.numbers, kTopK);
          break;
      }
    };
    // One untimed pass warms the caches, so no layer pays for the first touch.
    (void)service.Execute(req);
    Clock::time_point unused;
    hooks_.Take(req, &unused);
    engine_call(nullptr);  // warms this thread's caches too
    int64_t index_span = -1;
    if (spec.kind == QueryKind::kJoin && spec.join == JoinMethod::kJosie) {
      const Clock::time_point a = Clock::now();
      (void)engine.josie_join()->Search(q.values, kTopK, &s.josie);
      const Clock::time_point b = Clock::now();
      s.index_us = UsBetween(a, b);
      index_span = tracer_.Record("index.josie.search", a, b, op, -1);
    }
    const Clock::time_point a = Clock::now();
    engine_call(&s.approx);
    const Clock::time_point b = Clock::now();
    s.engine_us = UsBetween(a, b);
    const int64_t engine_span =
        tracer_.Record(std::string("search.") + spec.name, a, b, op, -1);
    if (index_span >= 0) tracer_.SetParent(index_span, engine_span);
    const Clock::time_point c = Clock::now();
    (void)service.Execute(req);
    const Clock::time_point d = Clock::now();
    hooks_.Take(req, &unused);
    s.execute_us = UsBetween(c, d);
    tracer_.SetParent(engine_span,
                      tracer_.Record("serve.execute.again", c, d, op, root));
    std::lock_guard<std::mutex> lock(trace_mu_);
    samples_.push_back(s);
  }

  /// Checks the first repetition's answers against the references and
  /// every answer of every repetition against its query's first answer.
  void CheckAnswers(const DiscoveryEngine& engine,
                    const std::vector<Phase>& phases) {
    const Phase& phase = phases.front();
    OverlapReference overlap(tables_);
    lake::approx::DiscoveryOracle oracle(&lake_.catalog);
    std::map<std::pair<lake::TableId, size_t>, size_t> oracle_index;
    for (size_t i = 0; i < oracle.indexed_columns().size(); ++i) {
      const lake::ColumnRef& ref = oracle.indexed_columns()[i];
      oracle_index[{ref.table_id, ref.column_index}] = i;
    }
    lake::StarmieUnionSearch::Options exact_opts;
    exact_opts.use_hnsw = false;
    lake::StarmieUnionSearch exact_starmie(
        &lake_.catalog, &engine.contextual_encoder(), exact_opts);
    auto name = [&](lake::TableId id) { return lake_.catalog.table(id).name(); };
    auto column_hits = [&](const std::vector<lake::ColumnResult>& cols) {
      std::vector<Hit> out;
      for (const auto& c : cols) {
        out.push_back({name(c.column.table_id), c.column.column_index, c.score});
      }
      return out;
    };
    auto table_hits = [&](const std::vector<lake::TableResult>& tables) {
      std::vector<Hit> out;
      for (const auto& t : tables) out.push_back({name(t.table_id), 0, t.score});
      return out;
    };

    // Reference verdict per distinct query: exact match (or recall) of the
    // first answer; every later answer must repeat the first bit for bit.
    std::map<std::pair<uint16_t, uint16_t>, uint64_t> first_digest;
    std::map<uint16_t, std::vector<double>> recalls;  // by pair
    uint64_t checked = 0;
    uint64_t exact = 0;
    uint64_t answer_digest = 0;
    for (const auto& [key, resp] : phase.first) {
      const auto [pair, qi] = key;
      const PairSpec& spec = Pairs()[pair];
      const Query& q = pools_[pair][qi];
      first_digest[key] = ResponseDigest(resp);
      answer_digest += Mix(Mix(pair, qi), first_digest[key]);
      const std::vector<Hit> got = spec.kind == QueryKind::kUnion ||
                                           spec.kind == QueryKind::kKeyword
                                       ? table_hits(resp.tables)
                                       : column_hits(resp.columns);
      auto containment_of = [&](const Hit& h) {
        const lake::TableId id = *lake_.catalog.FindTable(h.table);
        auto it = oracle_index.find({id, h.column});
        return it == oracle_index.end() ? -1.0
                                        : oracle.ContainmentOf(q.values,
                                                               it->second);
      };
      std::vector<Hit> want;
      bool match = false;
      switch (spec.check) {
        case Check::kOverlap:
          want = overlap.TopK(q.values, kTopK);
          match = TieAwareEqual(got, want, [&](const Hit& h) {
            return overlap.OverlapOf(q.values, h.table, h.column);
          });
          break;
        case Check::kContainment:
          want = column_hits(oracle.TopKByContainment(q.values, kTopK));
          match = TieAwareEqual(got, want, containment_of);
          break;
        case Check::kRecallContainment:
          recalls[pair].push_back(TieAwareRecall(
              got, column_hits(oracle.TopKByContainment(q.values, kTopK)),
              kTopK, containment_of));
          continue;
        case Check::kRecallStarmie: {
          const lake::Table& query_table = lake_.catalog.table(q.table);
          auto ref = exact_starmie.Search(query_table, kTopK,
                                          static_cast<int64_t>(q.table));
          if (!ref.ok()) {
            report_.Fail("exact Starmie reference failed");
            continue;
          }
          recalls[pair].push_back(TieAwareRecall(
              got, table_hits(ref.value()), kTopK, [&](const Hit& h) {
                return exact_starmie.ScoreTable(
                    query_table, *lake_.catalog.FindTable(h.table));
              }));
          continue;
        }
        case Check::kReplay: {
          // Same engine, same query, called directly: the service must
          // return exactly what the engine computes.
          QueryResponse direct;
          switch (spec.kind) {
            case QueryKind::kJoin:
              direct.columns = *engine.Joinable(q.values, spec.join, kTopK);
              break;
            case QueryKind::kUnion:
              direct.tables = *engine.Unionable(
                  lake_.catalog.table(q.table), spec.union_method, kTopK,
                  static_cast<int64_t>(q.table));
              break;
            case QueryKind::kKeyword:
              direct.tables = engine.Keyword(q.keyword, kTopK);
              break;
            case QueryKind::kCorrelated: {
              const auto found =
                  engine.correlated_join()->Search(q.values, q.numbers, kTopK);
              for (const auto& r : *found) {
                direct.columns.push_back(
                    {{r.table_id, r.numeric_column}, r.score, ""});
              }
              break;
            }
          }
          want = spec.kind == QueryKind::kUnion ||
                         spec.kind == QueryKind::kKeyword
                     ? table_hits(direct.tables)
                     : column_hits(direct.columns);
          match = AnswerDigest(got) == AnswerDigest(want);
          break;
        }
      }
      ++checked;
      if (match) {
        ++exact;
      } else {
        report_.Fail(std::string(spec.name) + " query " + std::to_string(qi) +
                     " answer " + DescribeHits(got) + " != reference " +
                     DescribeHits(want));
      }
    }
    uint64_t ok = 0;
    uint64_t attempted = 0;
    for (const Phase& p : phases) {
      for (const OpRecord& op : p.ops) {
        ++attempted;
        if (op.ok) ++ok;
        ++checked;
        if (first_digest.at({op.pair, op.query}) == op.digest) {
          ++exact;
        } else {
          report_.Fail(std::string(Pairs()[op.pair].name) + " query " +
                       std::to_string(op.query) + " answered differently");
        }
      }
    }
    RecordOutcome(&report_, attempted, ok, checked, exact, answer_digest);
    // Approximate answers must keep their measured quality: each method's
    // mean recall@10 has a floor below every seed's value.
    std::vector<double> all_recalls;
    for (const auto& [pair, values] : recalls) {
      const PairSpec& spec = Pairs()[pair];
      const double recall = Mean(values);
      all_recalls.insert(all_recalls.end(), values.begin(), values.end());
      report_.record[std::string("recall_at_10.") + spec.name] =
          FixedDigits(recall);
      if (recall < spec.recall_floor) {
        report_.Fail(std::string(spec.name) + " recall@10 " +
                     FixedDigits(recall) + " is below its floor " +
                     FixedDigits(spec.recall_floor));
      }
    }
    recall_ = Mean(all_recalls);
    report_.extra["recall_at_10"] = {recall_, "ratio", all_recalls.size()};
    report_.record["recall_at_10"] = FixedDigits(recall_);
  }

  /// One repetition's end-to-end latency and throughput metrics.
  PhaseStats PhaseMetrics(const Phase& phase) const {
    std::vector<double> all, joins, unions;
    size_t ok = 0;
    for (const OpRecord& op : phase.ops) {
      all.push_back(op.ms);
      const QueryKind kind = Pairs()[op.pair].kind;
      if (kind == QueryKind::kJoin) joins.push_back(op.ms);
      if (kind == QueryKind::kUnion) unions.push_back(op.ms);
      if (op.ok) ++ok;
    }
    PhaseStats m;
    const std::string& w = report_.workload;
    m.metrics["throughput_qps"] = {static_cast<double>(ok) / phase.wall_s,
                                   "1/s", phase.ops.size()};
    AddLatency(&m, w, "query_p50_ms", 0.5, all);
    AddLatency(&m, w, "query_p99_ms", 0.99, all);
    // Every read bypasses the cache, so every read is a miss.
    AddLatency(&m, w, "miss_p50_ms", 0.5, all);
    AddLatency(&m, w, "join_p50_ms", 0.5, joins);
    AddLatency(&m, w, "union_p50_ms", 0.5, unions);
    return m;
  }

  void Trace(const Phase& untraced, const Phase& traced) {
    auto& m = report_.layers;
    m["serve.queue_us"] = {Median(queue_us_), "us", queue_us_.size()};
    std::vector<std::vector<double>> engine_us(Pairs().size());
    std::vector<double> overhead, index, postings, verified;
    double estimates = 0, fallbacks = 0, decisions = 0;
    std::map<std::string, std::vector<double>> self;
    for (const LayerSample& s : samples_) {
      engine_us[s.pair].push_back(s.engine_us);
      overhead.push_back(s.execute_us - s.engine_us);
      self["serve"].push_back(s.execute_us - s.engine_us);
      self["search"].push_back(s.engine_us - s.index_us);
      self["index"].push_back(s.index_us);
      if (Pairs()[s.pair].check == Check::kOverlap) {
        index.push_back(s.index_us);
        postings.push_back(static_cast<double>(s.josie.posting_entries_read));
        verified.push_back(static_cast<double>(s.josie.candidates_verified));
      }
      estimates += static_cast<double>(s.approx.estimates);
      fallbacks += static_cast<double>(s.approx.exact_fallbacks);
      decisions += static_cast<double>(s.approx.exact_fallbacks +
                                       s.approx.interval_decisions);
    }
    for (size_t p = 0; p < Pairs().size(); ++p) {
      m[std::string("search.") + Pairs()[p].name + "_us"] = {
          Median(engine_us[p]), "us", engine_us[p].size()};
    }
    m["serve.overhead_us"] = {Median(overhead), "us", overhead.size()};
    m["index.josie.search_us"] = {Median(index), "us", index.size()};
    m["index.josie.postings_read"] = {Mean(postings), "count", postings.size()};
    m["index.josie.candidates_verified"] = {
        Mean(verified), "count", verified.size()};
    m["approx.estimates"] = {estimates, "count", samples_.size()};
    m["approx.exact_fallback_ratio"] = {
        decisions > 0 ? fallbacks / decisions : 0,
        "ratio",
        static_cast<uint64_t>(decisions)};
    m["search.recall_at_10"] = {recall_, "ratio", 1};
    const double qps = static_cast<double>(untraced.ops.size()) /
                       untraced.wall_s;
    const double qps_traced =
        static_cast<double>(traced.ops.size()) / traced.wall_s;
    m["trace.overhead_ratio"] = {qps_traced / qps, "ratio", 2};
    report_.layer_shares = LayerShares(self);
  }

  Args args_;
  Report report_;
  lake::GeneratedLake lake_;
  std::vector<const lake::Table*> tables_;
  std::vector<std::vector<Query>> pools_;
  std::vector<std::pair<uint16_t, uint16_t>> sequence_;
  double recall_ = 0;

  HookTimes hooks_;
  std::mutex trace_mu_;
  std::vector<double> queue_us_;
  std::vector<LayerSample> samples_;
  Tracer tracer_;
};

}  // namespace

Report RunDiscoverMixed(const Args& args) { return DiscoverMixed(args).Run(); }

}  // namespace perfbench
