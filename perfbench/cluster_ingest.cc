// cluster_ingest: writes beside reads in cluster mode.
//
// A ClusterEngine with 2 shards x 2 replicas, majority write quorum and a
// per-append-synced WAL. One closed-loop writer applies batches that each
// add one renamed lake table and remove the table added kWindow batches
// earlier (the lake size stays constant), and itself calls CompactAll every
// kCompactEvery batches and Checkpoint once. One closed-loop reader sends
// distinct keyword, JOSIE and Starmie queries through a cluster-mode
// QueryService. Afterwards every timed read is checked on what does not
// depend on its timing, check queries are compared with a single engine
// built over the visible tables, the cluster is destroyed and recovered
// from its store (replaying the WAL tail past the checkpoint), and checked
// again. No background thread runs: no compactor, scrubber or hedging.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "cluster/cluster_engine.h"
#include "embed/column_encoder.h"
#include "embed/contextual_encoder.h"
#include "embed/word_embedding.h"
#include "ingest/live_engine.h"
#include "lakegen/generator.h"
#include "layers.h"
#include "reference.h"
#include "search/discovery_engine.h"
#include "search/union_starmie.h"
#include "serve/query_service.h"
#include "util/random.h"

namespace perfbench {

namespace {

using lake::DiscoveryEngine;
using lake::cluster::ClusterEngine;
using lake::ingest::LiveEngine;
using lake::serve::QueryKind;
using lake::serve::QueryRequest;
using lake::serve::QueryResponse;
using lake::serve::QueryService;

constexpr size_t kTemplates = 6;
constexpr size_t kTablesPerTemplate = 20;
constexpr size_t kStringColumns = 3;
constexpr size_t kShards = 2;
constexpr size_t kReplicas = 2;
/// Writer: batches per second of --seconds, the add/remove window, the
/// compaction cadence and the checkpoint position (a fraction of the run).
constexpr size_t kBatchesPerSecond = 12;
constexpr size_t kWindow = 8;
constexpr size_t kCompactEvery = 28;
constexpr double kCheckpointAt = 0.75;
/// Reader: reads per second of --seconds and the query mix.
constexpr size_t kReadsPerSecond = 1800;
constexpr size_t kUnionEvery = 20;
constexpr size_t kTopK = 10;
constexpr int kSetups = 3;
constexpr size_t kChecksPerKind = 16;
constexpr size_t kTraceEvery = 4;

struct Query {
  QueryKind kind = QueryKind::kKeyword;
  std::string keyword;
  std::vector<std::string> values;
  std::shared_ptr<lake::Table> table;  // Starmie query (a projection)
  std::string exclude;                 // the lake table it came from
};

QueryRequest ToRequest(const Query& q, bool bypass_cache) {
  QueryRequest req;
  req.kind = q.kind;
  req.k = kTopK;
  req.bypass_cache = bypass_cache;
  req.keyword = q.keyword;
  req.values = q.values;
  req.join_method = lake::JoinMethod::kJosie;
  req.union_method = lake::UnionMethod::kStarmie;
  req.union_table = q.table.get();
  req.exclude_name = q.exclude;
  return req;
}

/// A service answer in mode-independent form.
std::vector<Hit> HitsOf(const QueryResponse& resp) {
  std::vector<Hit> out;
  for (size_t j = 0; j < resp.columns.size(); ++j) {
    out.push_back({resp.table_names[j], resp.columns[j].column.column_index,
                   resp.columns[j].score});
  }
  for (size_t j = 0; j < resp.tables.size(); ++j) {
    out.push_back({resp.table_names[j], 0, resp.tables[j].score});
  }
  return out;
}

struct ReadRecord {
  QueryKind kind = QueryKind::kKeyword;
  Clock::time_point start;
  Clock::time_point end;
  bool ok = false;
  QueryResponse resp;  // checked after the phase
};

struct WriteRecord {
  Clock::time_point start;
  Clock::time_point end;
};

struct Phase {
  std::vector<ReadRecord> reads;
  std::vector<double> apply_ms;
  std::vector<WriteRecord> writer_ops;  // batches, compactions, checkpoint
  std::vector<double> compact_s;
  double checkpoint_s = 0;
  double delta_tables_sum = 0;
  uint64_t writes_ok = 0;
  uint64_t writes = 0;
  double reader_s = 0;  // the reader's own wall time
  double writer_s = 0;
  /// Registry counters and ingest.publish_ms over the phase alone.
  std::map<std::string, uint64_t> counters;
  uint64_t publishes = 0;
  double publish_us = 0;
};

/// Per-request layer timings of the traced run.
struct LayerSample {
  double scatter_us = 0;  // ClusterEngine call
  double execute_us = 0;  // QueryService::Execute, cache bypassed
  std::vector<lake::cluster::ShardTrace> shards;
};

class ClusterIngest {
 public:
  explicit ClusterIngest(const Args& args) : args_(args) {
    report_.workload = "cluster_ingest";
    lake::GeneratorOptions g;
    g.seed = args.seed;
    g.num_templates = kTemplates;
    g.tables_per_template = kTablesPerTemplate;
    // Every template gets the same column count, so the lake's size, and
    // with it build, publish and compaction cost, does not swing with the
    // seed.
    g.min_string_columns = g.max_string_columns = kStringColumns;
    lake_ = lake::LakeGenerator(g).Generate();
    for (lake::TableId id : lake_.catalog.AllTables()) {
      tables_.push_back(&lake_.catalog.table(id));
    }
    lake::Rng rng = lake::Rng(args.seed).Fork("cluster_ingest.ops");
    order_ = lake_.catalog.AllTables();
    rng.Shuffle(order_);
    batches_ = static_cast<size_t>(args.seconds) * kBatchesPerSecond;
    // Whole compaction cycles, so the writer ends on a compacted cluster.
    batches_ = std::max(kCompactEvery,
                        batches_ / kCompactEvery * kCompactEvery);
    checkpoint_batch_ = static_cast<size_t>(kCheckpointAt *
                                            static_cast<double>(batches_));
    reads_ = MakeQueries(rng, static_cast<size_t>(args.seconds) *
                                  kReadsPerSecond);
    checks_ = MakeQueries(rng.Fork("checks"), 3 * kChecksPerKind);
  }

  Report Run() {
    std::vector<double> setup_s;
    std::unique_ptr<ClusterEngine> cluster;
    std::unique_ptr<QueryService> service;
    const int setups = args_.trace ? 1 : kSetups;
    for (int i = 0; i < setups; ++i) {
      service.reset();
      cluster.reset();
      Setup(&cluster, &service, &setup_s);
    }
    Phase phase = RunPhase(*cluster, *service, false);
    AssertTimingIndependent(&report_, service->metrics(), &metrics_);
    CheckAndRecover(&cluster, &service, phase);
    if (args_.trace) {
      service.reset();
      cluster.reset();
      Setup(&cluster, &service, &setup_s);
      hooks_.Enable(true);
      Phase traced = RunPhase(*cluster, *service, true);
      hooks_.Enable(false);
      Trace(phase, traced);
      tracer_.WriteJsonl(args_.work_dir + "/spans-cluster_ingest-" +
                         std::to_string(args_.seed) + ".jsonl");
    } else {
      report_.e2e["setup_s"] = {Median(setup_s), "s", setup_s.size()};
      Summarize(phase);
    }
    service.reset();
    cluster.reset();
    std::filesystem::remove_all(StoreRoot());
    report_.record["lake_digest"] = Hex(LakeDigest(tables_));
    return std::move(report_);
  }

 private:
  std::string StoreRoot() const {
    return args_.work_dir + "/cluster_ingest-" + std::to_string(args_.seed);
  }

  ClusterEngine::Options ClusterOptions() {
    ClusterEngine::Options co;
    co.num_shards = kShards;
    co.num_replicas = kReplicas;
    co.engine.base_options = LiveEngine::Options::DefaultDeltaOptions();
    co.engine.kb = &lake_.kb;
    co.engine.enable_wal = true;  // SyncPolicy::kEveryAppend by default
    // The one explicit Checkpoint is the only snapshot, so recovery
    // replays every batch acknowledged after it.
    co.engine.persist_after_compact = false;
    co.engine.metrics = &metrics_;
    co.metrics = &metrics_;
    co.store_root = StoreRoot();
    return co;
  }

  void Setup(std::unique_ptr<ClusterEngine>* cluster,
             std::unique_ptr<QueryService>* service,
             std::vector<double>* setup_s) {
    std::filesystem::remove_all(StoreRoot());
    std::filesystem::create_directories(StoreRoot());
    const Clock::time_point start = Clock::now();
    *cluster = std::make_unique<ClusterEngine>(lake_.catalog, ClusterOptions());
    *service = MakeService(cluster->get());
    setup_s->push_back(MsSince(start) / 1000.0);
  }

  std::unique_ptr<QueryService> MakeService(const ClusterEngine* cluster) {
    QueryService::Options so;
    so.num_workers = 1;  // one reader
    if (args_.trace) hooks_.Install(&so);
    auto service = std::make_unique<QueryService>(cluster, so);
    hooks_.Attach(service.get());
    return service;
  }

  std::vector<Query> MakeQueries(lake::Rng rng, size_t n) {
    const lake::DataLakeCatalog& catalog = lake_.catalog;
    std::vector<lake::ColumnRef> string_cols;
    catalog.ForEachColumn(
        [&](const lake::ColumnRef& ref, const lake::Column& c) {
          if (!c.IsNumeric()) string_cols.push_back(ref);
        });
    std::set<std::string> seen;
    std::vector<Query> out;
    while (out.size() < n) {
      Query q;
      // A fixed kind pattern: one read in kUnionEvery is a Starmie union,
      // the rest alternate keyword and JOSIE.
      const size_t i = out.size();
      std::string key;
      if (i % kUnionEvery != 0 && i % 2 == 1) {
        const lake::Table& t = catalog.table(static_cast<lake::TableId>(
            rng.NextBounded(catalog.num_tables())));
        const lake::Column& c = t.column(rng.NextBounded(t.num_columns()));
        q.keyword = lake_.topic_of[rng.NextBounded(lake_.topic_of.size())] +
                    " " + c.name() + " " +
                    c.cell(rng.NextBounded(c.size())).ToString();
        key = "k:" + q.keyword;
      } else if (i % kUnionEvery != 0) {
        q.kind = QueryKind::kJoin;
        const lake::ColumnRef ref =
            string_cols[rng.NextBounded(string_cols.size())];
        std::vector<std::string> v = catalog.column(ref).DistinctStrings();
        if (v.size() < 4) continue;
        rng.Shuffle(v);
        v.resize(std::min<size_t>(v.size(), 4 + rng.NextBounded(37)));
        std::sort(v.begin(), v.end());
        key = "j:";
        for (const std::string& s : v) key += s + '\x1f';
        q.values = std::move(v);
      } else {
        q.kind = QueryKind::kUnion;
        const lake::Table& t = catalog.table(static_cast<lake::TableId>(
            rng.NextBounded(catalog.num_tables())));
        // A random column subset and row range keep the queries distinct.
        std::vector<size_t> cols;
        for (size_t c = 0; c < t.num_columns(); ++c) {
          if (rng.NextBool(0.7)) cols.push_back(c);
        }
        if (cols.empty()) cols.push_back(0);
        const size_t rows = t.num_rows();
        const size_t begin = rng.NextBounded(rows / 4 + 1);
        const size_t end = rows - rng.NextBounded(rows / 4 + 1);
        key = "u:" + t.name() + ":" + std::to_string(begin) + ":" +
              std::to_string(end);
        for (size_t c : cols) key += "," + std::to_string(c);
        auto projected = t.Project(cols);
        if (!projected.ok()) continue;
        auto sliced = projected->Slice(begin, end);
        if (!sliced.ok()) continue;
        q.table = std::make_shared<lake::Table>(std::move(sliced).value());
        q.exclude = t.name();
      }
      if (!seen.insert(key).second) continue;
      out.push_back(std::move(q));
    }
    return out;
  }

  Phase RunPhase(ClusterEngine& cluster, QueryService& service, bool traced) {
    Phase out;
    out.reads.resize(reads_.size());
    const std::map<std::string, uint64_t> before = Counters();
    const auto publish_before =
        metrics_.GetHistogram("ingest.publish_ms")->Snap();
    std::thread writer([&] {
      const Clock::time_point start = Clock::now();
      RunWriter(cluster, &out);
      out.writer_s = MsSince(start) / 1000.0;
    });
    std::thread reader([&] {
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < reads_.size(); ++i) {
        ReadRecord& rec = out.reads[i];
        rec.kind = reads_[i].kind;
        rec.start = Clock::now();
        rec.resp = service.Execute(ToRequest(reads_[i], false));
        rec.end = Clock::now();
        rec.ok = FullAnswer(rec.resp) && !rec.resp.cache_hit;
        if (traced) TraceRead(cluster, service, i, rec);
      }
      out.reader_s = MsSince(start) / 1000.0;
    });
    writer.join();
    reader.join();
    for (const auto& [name, value] : Counters()) {
      out.counters[name] = value - (before.count(name) ? before.at(name) : 0);
    }
    const auto publish = metrics_.GetHistogram("ingest.publish_ms")->Snap();
    out.publishes = publish.count - publish_before.count;
    out.publish_us = publish.sum_micros - publish_before.sum_micros;
    return out;
  }

  void RunWriter(ClusterEngine& cluster, Phase* out) {
    for (size_t i = 0; i < batches_; ++i) {
      LiveEngine::Batch batch;
      lake::Table add = lake_.catalog.table(order_[i % order_.size()]);
      add.set_name("ingest_" + std::to_string(i));
      batch.adds.push_back(std::move(add));
      if (i >= kWindow) {
        batch.removes.push_back("ingest_" + std::to_string(i - kWindow));
      }
      const Clock::time_point a = Clock::now();
      const LiveEngine::BatchOutcome outcome =
          cluster.ApplyBatch(std::move(batch));
      const Clock::time_point b = Clock::now();
      out->apply_ms.push_back(UsBetween(a, b) / 1000.0);
      out->writer_ops.push_back({a, b});
      bool ok = outcome.published;
      for (const auto& r : outcome.adds) ok = ok && r.ok();
      for (const auto& r : outcome.removes) ok = ok && r.ok();
      ++out->writes;
      if (ok) ++out->writes_ok;
      out->delta_tables_sum += static_cast<double>(
          metrics_.GetGauge("ingest.delta.tables")->value());
      const size_t done = i + 1;
      if (done % kCompactEvery == 0) {
        const Clock::time_point c = Clock::now();
        const lake::Status st = cluster.CompactAll();
        const Clock::time_point d = Clock::now();
        if (!st.ok()) report_.Fail("CompactAll failed: " + st.ToString());
        out->compact_s.push_back(UsBetween(c, d) / 1e6);
        out->writer_ops.push_back({c, d});
      }
      if (done == checkpoint_batch_) {
        const Clock::time_point c = Clock::now();
        const lake::Status st = cluster.Checkpoint();
        const Clock::time_point d = Clock::now();
        if (!st.ok()) report_.Fail("Checkpoint failed: " + st.ToString());
        out->checkpoint_s = UsBetween(c, d) / 1e6;
        out->writer_ops.push_back({c, d});
      }
    }
  }

  void TraceRead(ClusterEngine& cluster, QueryService& service, size_t op,
                 const ReadRecord& rec) {
    const Query& q = reads_[op];
    Clock::time_point hooked;
    if (!hooks_.Take(ToRequest(q, false), &hooked)) return;
    const int64_t root =
        tracer_.Record("serve.execute", rec.start, rec.end, op, -1);
    tracer_.Record("serve.queue", rec.start, hooked, op, root);
    queue_us_.push_back(UsBetween(rec.start, hooked));
    if (op % kTraceEvery != 0) return;
    LayerSample s;
    const QueryRequest bypass = ToRequest(q, true);
    // One untimed pass warms the caches, so no layer pays for the first touch.
    (void)service.Execute(bypass);
    hooks_.Take(bypass, &hooked);
    Clock::time_point a = Clock::now();
    switch (q.kind) {
      case QueryKind::kKeyword:
        s.shards = cluster.Keyword(q.keyword, kTopK).traces;
        break;
      case QueryKind::kJoin:
        s.shards =
            cluster.Joinable(q.values, lake::JoinMethod::kJosie, kTopK).traces;
        break;
      default:
        s.shards = cluster
                       .Unionable(*q.table, lake::UnionMethod::kStarmie, kTopK,
                                  q.exclude)
                       .traces;
        break;
    }
    Clock::time_point b = Clock::now();
    s.scatter_us = UsBetween(a, b);
    const int64_t scatter = tracer_.Record("cluster.scatter", a, b, op, -1);
    a = Clock::now();
    (void)service.Execute(bypass);
    b = Clock::now();
    hooks_.Take(bypass, &hooked);
    s.execute_us = UsBetween(a, b);
    const int64_t execute =
        tracer_.Record("serve.execute.bypass", a, b, op, root);
    tracer_.SetParent(scatter, execute);
    samples_.push_back(std::move(s));
  }

  /// Checks every timed read of `phase` on what does not depend on when it
  /// ran, since the ingest_* tables a read sees do: every name is a lake or
  /// ingest_* table (never the Starmie query's own table), scores do not
  /// increase, and each JOSIE or Starmie hit's reported score is its true
  /// score (overlap and embedding scores do not depend on the rest of the
  /// corpus, and ingest_i is a copy of lake table order_[i % n]). A JOSIE
  /// answer must also hold every lake column scoring above its last entry
  /// (lake tables are never removed). These answers depend on timing, so
  /// they stay out of the answer digest. Returns (checked, exact).
  std::pair<uint64_t, uint64_t> CheckReads(const Phase& phase) {
    std::unordered_map<std::string, lake::TableId> source;
    for (lake::TableId id : lake_.catalog.AllTables()) {
      source[lake_.catalog.table(id).name()] = id;
    }
    for (size_t i = 0; i < batches_; ++i) {
      source["ingest_" + std::to_string(i)] = order_[i % order_.size()];
    }
    OverlapReference overlap(tables_);
    const lake::WordEmbedding words(lake::WordEmbedding::Options{
        .dim = LiveEngine::Options::DefaultDeltaOptions().embedding_dim});
    const lake::ColumnEncoder columns(&words);
    const lake::ContextualColumnEncoder encoder(&columns);
    lake::StarmieUnionSearch::Options exact_opts;
    exact_opts.use_hnsw = false;
    const lake::StarmieUnionSearch starmie(&lake_.catalog, &encoder,
                                           exact_opts);
    uint64_t checked = 0;
    uint64_t exact = 0;
    for (size_t i = 0; i < phase.reads.size(); ++i) {
      const ReadRecord& rec = phase.reads[i];
      if (!rec.ok) continue;  // counted by ok_ratio
      const Query& q = reads_[i];
      const std::vector<Hit> got = HitsOf(rec.resp);
      // One exact Starmie search scores every table its retrieval reaches
      // (one query encoding); ScoreTable covers any other hit.
      std::unordered_map<lake::TableId, double> union_scores;
      if (q.kind == QueryKind::kUnion) {
        auto all = starmie.Search(*q.table, lake_.catalog.num_tables());
        if (all.ok()) {
          for (const auto& t : *all) union_scores[t.table_id] = t.score;
        }
      }
      std::string why;
      double last = 0;
      for (size_t j = 0; j < got.size() && why.empty(); ++j) {
        const Hit& h = got[j];
        auto it = source.find(h.table);
        if (it == source.end() || h.table == q.exclude) {
          why = "unexpected table " + h.table;
          break;
        }
        if (j > 0 && h.score > last + 1e-9) {
          why = "scores increase";
          break;
        }
        last = h.score;
        double truth = h.score;
        if (q.kind == QueryKind::kJoin) {
          truth = overlap.OverlapOf(
              q.values, lake_.catalog.table(it->second).name(), h.column);
        } else if (q.kind == QueryKind::kUnion) {
          auto scored = union_scores.find(it->second);
          truth = scored != union_scores.end()
                      ? scored->second
                      : starmie.ScoreTable(*q.table, it->second);
        }
        if (std::abs(truth - h.score) > 1e-9) {
          why = h.table + " reported score " + std::to_string(h.score) +
                " != true score " + std::to_string(truth);
        }
      }
      if (why.empty() && q.kind == QueryKind::kJoin) {
        std::set<std::pair<std::string, size_t>> returned;
        for (const Hit& h : got) returned.insert({h.table, h.column});
        for (const Hit& h : overlap.TopK(q.values, kTopK)) {
          const bool must = got.size() < kTopK || h.score > last + 1e-9;
          if (must && returned.count({h.table, h.column}) == 0) {
            why = "misses lake column " + h.table + "#" +
                  std::to_string(h.column);
            break;
          }
        }
      }
      ++checked;
      if (why.empty()) {
        ++exact;
      } else {
        report_.Fail("read " + std::to_string(i) + ": " + why + " in " +
                     DescribeHits(got));
      }
    }
    return {checked, exact};
  }

  /// Checks the check queries of the given kinds through `service` against
  /// a single engine built over the cluster's visible tables; returns
  /// (checked, exact).
  std::pair<uint64_t, uint64_t> CheckAgainstSingleEngine(
      ClusterEngine& cluster, QueryService& service, const std::string& when,
      const std::set<QueryKind>& kinds, uint64_t* digest) {
    std::vector<lake::Table> visible = cluster.VisibleTables();
    lake::DataLakeCatalog reference;
    for (lake::Table& t : visible) reference.AddTable(std::move(t));
    std::vector<const lake::Table*> ref_tables;
    for (lake::TableId id : reference.AllTables()) {
      ref_tables.push_back(&reference.table(id));
    }
    const DiscoveryEngine engine(&reference, &lake_.kb,
                                 LiveEngine::Options::DefaultDeltaOptions());
    OverlapReference overlap(ref_tables);
    auto name = [&](lake::TableId id) { return reference.table(id).name(); };
    uint64_t checked = 0;
    uint64_t exact = 0;
    // The visible lake itself: every lake table plus the last kWindow adds.
    std::set<std::string> expected_names;
    for (const lake::Table* t : tables_) expected_names.insert(t->name());
    for (size_t i = batches_ - std::min(batches_, kWindow); i < batches_; ++i) {
      expected_names.insert("ingest_" + std::to_string(i));
    }
    std::set<std::string> names;
    for (const lake::Table* t : ref_tables) names.insert(t->name());
    ++checked;
    if (names == expected_names) {
      ++exact;
    } else {
      report_.Fail(when + ": visible tables differ from the writer's lake");
    }
    for (size_t i = 0; i < checks_.size(); ++i) {
      const Query& q = checks_[i];
      if (kinds.count(q.kind) == 0) continue;
      const QueryResponse resp = service.Execute(ToRequest(q, true));
      std::vector<Hit> got;
      std::vector<Hit> want;
      bool match = false;
      if (!FullAnswer(resp)) {
        report_.Fail(when + ": check query failed: " + resp.status.ToString());
      } else if (q.kind == QueryKind::kJoin) {
        got = HitsOf(resp);
        want = overlap.TopK(q.values, kTopK);
        match = TieAwareEqual(got, want, [&](const Hit& h) {
          return overlap.OverlapOf(q.values, h.table, h.column);
        });
      } else {
        got = HitsOf(resp);
        // The full ranking gives every table's true score, so a returned
        // table tied with the k-th reference entry is accepted.
        const size_t all = reference.num_tables();
        std::vector<lake::TableResult> ref;
        if (q.kind == QueryKind::kKeyword) {
          ref = engine.Keyword(q.keyword, all);
        } else {
          auto found = reference.FindTable(q.exclude);
          auto r = engine.Unionable(*q.table, lake::UnionMethod::kStarmie, all,
                                    found.ok() ? int64_t(*found) : int64_t{-1});
          if (r.ok()) ref = std::move(r).value();
        }
        std::map<std::string, double> scores;
        for (const auto& t : ref) {
          scores[name(t.table_id)] = t.score;
          if (want.size() < kTopK) {
            want.push_back({name(t.table_id), 0, t.score});
          }
        }
        match = TieAwareEqual(got, want, [&](const Hit& h) {
          auto it = scores.find(h.table);
          return it == scores.end() ? -1.0 : it->second;
        });
      }
      *digest += Mix(i, AnswerDigest(got));
      ++checked;
      if (match) {
        ++exact;
      } else {
        report_.Fail(when + ": check query " + std::to_string(i) + " answer " +
                     DescribeHits(got) + " != reference " + DescribeHits(want));
      }
    }
    return {checked, exact};
  }

  void CheckAndRecover(std::unique_ptr<ClusterEngine>* cluster,
                       std::unique_ptr<QueryService>* service,
                       const Phase& phase) {
    uint64_t reads_ok = 0;
    for (const ReadRecord& r : phase.reads) reads_ok += r.ok ? 1 : 0;
    uint64_t digest = 0;
    auto [checked, exact] = CheckReads(phase);
    const std::set<QueryKind> all = {QueryKind::kKeyword, QueryKind::kJoin,
                                     QueryKind::kUnion};
    auto [checked1, exact1] = CheckAgainstSingleEngine(
        **cluster, **service, "after writer", all, &digest);
    checked += checked1;
    exact += exact1;
    const auto digests = (*cluster)->VisibleTableDigests();

    // Crash and recover: replay the WAL tail past the checkpoint.
    const uint64_t replayed_before =
        CounterValue(metrics_, "ingest.wal.replayed_records");
    service->reset();
    cluster->reset();
    const Clock::time_point start = Clock::now();
    auto recovered = ClusterEngine::Recover(ClusterOptions());
    recover_s_ = MsSince(start) / 1000.0;
    replay_records_ = CounterValue(metrics_, "ingest.wal.replayed_records") -
                      replayed_before;
    if (!recovered.ok()) {
      throw BenchError("ClusterEngine::Recover failed: " +
                       recovered.status().ToString());
    }
    *cluster = std::move(recovered).value();
    *service = MakeService(cluster->get());
    ++checked;
    if ((*cluster)->VisibleTableDigests() == digests) {
      ++exact;
    } else {
      report_.Fail("recovered table digests differ from the pre-crash state");
    }
    // Overlap and embedding scores do not depend on the rest of the corpus,
    // so JOSIE and Starmie are checked on the recovered, uncompacted
    // cluster. BM25 corpus statistics still count tombstoned tables until
    // compaction, so keyword answers are checked once the replayed tail is
    // compacted.
    auto [checked2, exact2] = CheckAgainstSingleEngine(
        **cluster, **service, "after recovery",
        {QueryKind::kJoin, QueryKind::kUnion}, &digest);
    const lake::Status compacted = (*cluster)->CompactAll();
    if (!compacted.ok()) {
      report_.Fail("CompactAll after recovery failed: " + compacted.ToString());
    }
    auto [checked3, exact3] = CheckAgainstSingleEngine(
        **cluster, **service, "after recovery and compaction",
        {QueryKind::kKeyword}, &digest);
    checked += checked2 + checked3;
    exact += exact2 + exact3;

    const uint64_t attempted = phase.reads.size() + phase.writes;
    RecordOutcome(&report_, attempted, reads_ok + phase.writes_ok, checked,
                  exact, digest);
    report_.record["replay_records"] = std::to_string(replay_records_);
  }

  /// Reads that overlapped a writer operation and took more than 10x
  /// their kind's median.
  double StalledReadRatio(const Phase& phase) const {
    std::map<QueryKind, std::vector<double>> by_kind;
    for (const ReadRecord& r : phase.reads) {
      by_kind[r.kind].push_back(UsBetween(r.start, r.end));
    }
    std::map<QueryKind, double> p50;
    for (auto& [kind, v] : by_kind) p50[kind] = Median(v);
    size_t stalled = 0;
    for (const ReadRecord& r : phase.reads) {
      if (UsBetween(r.start, r.end) <= 10 * p50[r.kind]) continue;
      for (const WriteRecord& w : phase.writer_ops) {
        if (w.start < r.end && r.start < w.end) {
          ++stalled;
          break;
        }
      }
    }
    return static_cast<double>(stalled) /
           static_cast<double>(phase.reads.size());
  }

  void Summarize(const Phase& phase) {
    std::vector<double> all, joins;
    for (const ReadRecord& r : phase.reads) {
      const double ms = UsBetween(r.start, r.end) / 1000.0;
      all.push_back(ms);
      if (r.kind == QueryKind::kJoin) joins.push_back(ms);
    }
    std::fprintf(stderr,
                 "cluster_ingest: compaction mean %.3f s, checkpoint %.3f s, "
                 "reader %.3f s, writer %.3f s, stalled reads %.4f\n",
                 Mean(phase.compact_s), phase.checkpoint_s, phase.reader_s,
                 phase.writer_s, StalledReadRatio(phase));
    uint64_t reads_ok = 0;
    for (const ReadRecord& r : phase.reads) reads_ok += r.ok ? 1 : 0;
    report_.e2e["throughput_qps"] = {
        static_cast<double>(reads_ok) / phase.reader_s, "1/s",
        phase.reads.size()};
    const std::string& w = report_.workload;
    PhaseStats m;
    AddLatency(&m, w, "query_p50_ms", 0.5, all);
    AddLatency(&m, w, "query_p99_ms", 0.99, all);
    // No query repeats, so every read is a cache miss.
    AddLatency(&m, w, "miss_p50_ms", 0.5, all);
    AddLatency(&m, w, "join_p50_ms", 0.5, joins);
    AddLatency(&m, w, "write_p50_ms", 0.5, phase.apply_ms);
    AddLatency(&m, w, "write_p90_ms", 0.9, phase.apply_ms);
    // One timed phase, so any failed guard stops the run.
    for (auto& [name, metric] : MedianAcross({m})) {
      (name.rfind("write_", 0) == 0 ? report_.extra : report_.e2e)[name] =
          metric;
    }
    report_.extra["recover_s"] = {recover_s_, "s", 1};
  }

  std::map<std::string, uint64_t> Counters() {
    std::map<std::string, uint64_t> out;
    for (const auto& [n, v] : metrics_.Snap().counters) out[n] = v;
    return out;
  }

  void Trace(const Phase& untraced, const Phase& traced) {
    auto& m = report_.layers;
    m["serve.queue_us"] = {Median(queue_us_), "us", queue_us_.size()};
    std::vector<double> scatter, shard, gather, overhead, attempts;
    std::map<std::string, std::vector<double>> self;
    for (const LayerSample& s : samples_) {
      double slowest = 0;
      for (const auto& t : s.shards) {
        shard.push_back(t.latency_ms * 1000.0);
        attempts.push_back(static_cast<double>(t.attempts));
        slowest = std::max(slowest, t.latency_ms * 1000.0);
      }
      scatter.push_back(s.scatter_us);
      gather.push_back(s.scatter_us - slowest);
      overhead.push_back(s.execute_us - s.scatter_us);
      self["serve"].push_back(s.execute_us - s.scatter_us);
      self["cluster"].push_back(s.scatter_us - slowest);
      self["shard"].push_back(slowest);
    }
    m["serve.overhead_us"] = {Median(overhead), "us", overhead.size()};
    m["cluster.scatter_us"] = {Median(scatter), "us", scatter.size()};
    m["cluster.shard_us"] = {Median(shard), "us", shard.size()};
    m["cluster.gather_p50_us"] = {Percentile(gather, 0.5), "us", gather.size()};
    m["cluster.gather_p99_us"] = {
        Percentile(gather, 0.99), "us", gather.size()};
    m["cluster.attempts_per_shard"] = {
        Mean(attempts), "count", attempts.size()};
    m["cluster.stalled_read_ratio"] = {
        StalledReadRatio(untraced), "ratio", untraced.reads.size()};

    // Writer-side layers come from the untraced phase.
    const double batches = static_cast<double>(untraced.apply_ms.size());
    m["ingest.apply_p50_ms"] = {
        Percentile(untraced.apply_ms, 0.5), "ms", untraced.apply_ms.size()};
    m["ingest.apply_p90_ms"] = {
        Percentile(untraced.apply_ms, 0.9), "ms", untraced.apply_ms.size()};
    m["ingest.compact_s"] = {
        Median(untraced.compact_s), "s", untraced.compact_s.size()};
    m["ingest.delta_tables_at_publish"] = {
        untraced.delta_tables_sum / batches, "count", untraced.apply_ms.size()};
    // Registry counters and publishes of the untraced phase alone.
    std::map<std::string, uint64_t> counters = untraced.counters;
    m["ingest.publish_ms"] = {
        untraced.publishes == 0
            ? 0
            : untraced.publish_us / 1000.0 /
                  static_cast<double>(untraced.publishes),
        "ms", untraced.publishes};
    m["store.wal_bytes_per_batch"] = {
        static_cast<double>(counters["ingest.wal.bytes"]) / batches, "B",
        untraced.apply_ms.size()};
    m["store.fsyncs_per_batch"] = {
        static_cast<double>(counters["ingest.wal.fsyncs"]) / batches, "count",
        untraced.apply_ms.size()};
    m["store.checkpoint_s"] = {untraced.checkpoint_s, "s", 1};
    m["store.replay_records"] = {
        static_cast<double>(replay_records_), "count", 1};
    m["store.recover_s"] = {recover_s_, "s", 1};
    const double qps = static_cast<double>(untraced.reads.size()) /
                       untraced.reader_s;
    const double qps_traced =
        static_cast<double>(traced.reads.size()) / traced.reader_s;
    m["trace.overhead_ratio"] = {qps_traced / qps, "ratio", 2};
    report_.layer_shares = LayerShares(self);
  }

  Args args_;
  Report report_;
  lake::GeneratedLake lake_;
  std::vector<const lake::Table*> tables_;
  std::vector<lake::TableId> order_;
  size_t batches_ = 0;
  size_t checkpoint_batch_ = 0;
  std::vector<Query> reads_;
  std::vector<Query> checks_;
  lake::serve::MetricsRegistry metrics_;  // cluster + replica engines
  double recover_s_ = 0;
  uint64_t replay_records_ = 0;

  HookTimes hooks_;
  std::vector<double> queue_us_;
  std::vector<LayerSample> samples_;
  Tracer tracer_;
};

}  // namespace

Report RunClusterIngest(const Args& args) { return ClusterIngest(args).Run(); }

}  // namespace perfbench
