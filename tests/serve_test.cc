#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "ingest/live_engine.h"
#include "lakegen/generator.h"
#include "search/discovery_engine.h"
#include "serve/metrics.h"
#include "serve/query_service.h"
#include "serve/result_cache.h"
#include "util/cancel.h"

namespace lake::serve {
namespace {

// ---------------------------------------------------------------- metrics

TEST(LatencyHistogramTest, BucketBoundsAreConsistent) {
  for (uint64_t us : {0ull, 1ull, 3ull, 4ull, 7ull, 100ull, 1023ull, 1024ull,
                      999999ull, 123456789ull}) {
    const size_t index = LatencyHistogram::BucketIndex(us);
    EXPECT_GE(us, LatencyHistogram::BucketLowerBound(index))
        << "us=" << us << " index=" << index;
    if (index + 1 < LatencyHistogram::kNumBuckets) {
      EXPECT_LT(us, LatencyHistogram::BucketLowerBound(index + 1))
          << "us=" << us << " index=" << index;
    }
  }
}

TEST(LatencyHistogramTest, QuantilesOfUniformSamples) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Record(static_cast<double>(i));
  const LatencyHistogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, 1000u);
  // Log-scale buckets bound relative error by ~12.5% per octave plus
  // interpolation; allow a loose band.
  EXPECT_NEAR(snap.Quantile(0.5), 500.0, 150.0);
  EXPECT_NEAR(snap.Quantile(0.95), 950.0, 200.0);
  EXPECT_NEAR(snap.Quantile(0.99), 990.0, 200.0);
  EXPECT_DOUBLE_EQ(snap.max_micros, 1000.0);
  EXPECT_NEAR(snap.mean(), 500.5, 1.0);
}

TEST(LatencyHistogramTest, PercentileOfEmptyHistogramIsZero) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.99), 0.0);
}

TEST(LatencyHistogramTest, PercentileOfSingleBucketIsBoundedBySample) {
  LatencyHistogram hist;
  hist.Record(5000);
  EXPECT_EQ(hist.count(), 1u);
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_LE(hist.Percentile(q), 5000.0) << "q=" << q;
    EXPECT_GT(hist.Percentile(q), 4000.0) << "q=" << q;  // same bucket
  }
}

TEST(LatencyHistogramTest, PercentileInterpolatesAcrossBuckets) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Record(static_cast<double>(i));
  EXPECT_EQ(hist.count(), 1000u);
  // Matches Snapshot::Quantile (same code path) within the log-bucket
  // resolution, and quantiles are monotone in q.
  EXPECT_NEAR(hist.Percentile(0.5), 500.0, 150.0);
  EXPECT_NEAR(hist.Percentile(0.95), 950.0, 200.0);
  EXPECT_LE(hist.Percentile(0.5), hist.Percentile(0.9));
  EXPECT_LE(hist.Percentile(0.9), hist.Percentile(0.99));
  EXPECT_LE(hist.Percentile(0.99), 1000.0);
}

TEST(LatencyHistogramTest, SingleSampleQuantiles) {
  LatencyHistogram hist;
  hist.Record(5000);
  const LatencyHistogram::Snapshot snap = hist.Snap();
  EXPECT_LE(snap.Quantile(0.5), 5000.0);
  EXPECT_GT(snap.Quantile(0.5), 4000.0);  // same bucket as the sample
  EXPECT_LE(snap.Quantile(0.99), 5000.0);
}

TEST(LatencyHistogramTest, QuantileEdgeCasesAreExactExtremes) {
  LatencyHistogram hist;
  hist.Record(37);
  hist.Record(5000);
  hist.Record(120);
  const LatencyHistogram::Snapshot snap = hist.Snap();
  // q<=0 is the exact tracked minimum, q>=1 (and out-of-range q) the
  // exact tracked maximum — no bucket interpolation at the extremes.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 37.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(-1.0), 37.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 5000.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(2.0), 5000.0);
  EXPECT_DOUBLE_EQ(snap.min_micros, 37.0);
  EXPECT_DOUBLE_EQ(snap.max_micros, 5000.0);
  // Interior quantiles never extrapolate past an observed sample.
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_GE(snap.Quantile(q), 37.0) << "q=" << q;
    EXPECT_LE(snap.Quantile(q), 5000.0) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, QuantileOfNanIsMinNotGarbage) {
  LatencyHistogram hist;
  hist.Record(100);
  const LatencyHistogram::Snapshot snap = hist.Snap();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(snap.Quantile(nan), 100.0);  // NaN treated as q=0
  // And an empty histogram stays 0 for every q, NaN included.
  LatencyHistogram empty;
  EXPECT_DOUBLE_EQ(empty.Snap().Quantile(nan), 0.0);
  EXPECT_DOUBLE_EQ(empty.Snap().Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Snap().Quantile(1.0), 0.0);
}

TEST(MetricsRegistryTest, CountersAndStablePointers) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("requests");
  c->Add();
  c->Add(4);
  EXPECT_EQ(registry.GetCounter("requests"), c);
  EXPECT_EQ(c->value(), 5u);
  const MetricsRegistry::Snapshot snap = registry.Snap();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "requests");
  EXPECT_EQ(snap.counters[0].second, 5u);
}

TEST(MetricsRegistryTest, TextAndJsonDumps) {
  MetricsRegistry registry;
  registry.GetCounter("a.b")->Add(3);
  registry.GetHistogram("lat")->Record(100);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("a.b: 3"), std::string::npos);
  EXPECT_NE(text.find("lat:"), std::string::npos);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"a.b\":3"), std::string::npos);
  EXPECT_NE(json.find("\"lat\":{\"count\":1"), std::string::npos);
}

TEST(MetricsRegistryTest, SnapshotBinaryRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("served")->Add(12);
  registry.GetCounter("rejected")->Add(1);
  LatencyHistogram* hist = registry.GetHistogram("latency");
  for (int i = 0; i < 100; ++i) hist->Record(10.0 * i);
  const MetricsRegistry::Snapshot snap = registry.Snap();

  std::stringstream buffer;
  BinaryWriter writer(&buffer);
  ASSERT_TRUE(WriteSnapshot(snap, &writer).ok());
  BinaryReader reader(&buffer);
  Result<MetricsRegistry::Snapshot> loaded = ReadSnapshot(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  ASSERT_EQ(loaded->counters.size(), snap.counters.size());
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    EXPECT_EQ(loaded->counters[i], snap.counters[i]);
  }
  ASSERT_EQ(loaded->histograms.size(), 1u);
  EXPECT_EQ(loaded->histograms[0].name, "latency");
  EXPECT_EQ(loaded->histograms[0].count, snap.histograms[0].count);
  EXPECT_DOUBLE_EQ(loaded->histograms[0].p95_us, snap.histograms[0].p95_us);
  EXPECT_DOUBLE_EQ(loaded->histograms[0].max_us, snap.histograms[0].max_us);
}

TEST(MetricsRegistryTest, ReadSnapshotRejectsGarbage) {
  std::stringstream buffer("not a snapshot at all");
  BinaryReader reader(&buffer);
  EXPECT_FALSE(ReadSnapshot(&reader).ok());
}

// ------------------------------------------------------------------ cache

CachedResult MakeTables(int n, size_t why_bytes = 8) {
  CachedResult r;
  for (int i = 0; i < n; ++i) {
    r.tables.push_back(
        TableResult{static_cast<TableId>(i), 1.0, std::string(why_bytes, 'x')});
  }
  return r;
}

TEST(ResultCacheTest, LookupMissThenHit) {
  ResultCache cache(ResultCache::Options{4, 1 << 20});
  CachedResult out;
  EXPECT_FALSE(cache.Lookup(7, &out));
  cache.Insert(7, MakeTables(3));
  ASSERT_TRUE(cache.Lookup(7, &out));
  EXPECT_EQ(out.tables.size(), 3u);
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedUnderMemoryBound) {
  // One shard so the LRU order is globally observable; capacity fits only
  // a couple of entries.
  const size_t entry_bytes = MakeTables(1, 256).ApproxBytes();
  ResultCache cache(ResultCache::Options{1, entry_bytes * 3});
  cache.Insert(1, MakeTables(1, 256));
  cache.Insert(2, MakeTables(1, 256));
  cache.Insert(3, MakeTables(1, 256));
  CachedResult out;
  ASSERT_TRUE(cache.Lookup(1, &out));  // promote 1; 2 is now LRU
  cache.Insert(4, MakeTables(1, 256));
  EXPECT_FALSE(cache.Lookup(2, &out));
  EXPECT_TRUE(cache.Lookup(1, &out));
  EXPECT_TRUE(cache.Lookup(3, &out));
  EXPECT_TRUE(cache.Lookup(4, &out));
  EXPECT_GE(cache.GetStats().evictions, 1u);
}

TEST(ResultCacheTest, CapacityBoundHolds) {
  ResultCache cache(ResultCache::Options{2, 4096});
  for (uint64_t key = 0; key < 200; ++key) {
    cache.Insert(key, MakeTables(2, 64));
  }
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.bytes, 4096u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(ResultCacheTest, OversizedValueNotAdmitted) {
  ResultCache cache(ResultCache::Options{1, 512});
  cache.Insert(1, MakeTables(100, 256));  // far larger than the whole cache
  CachedResult out;
  EXPECT_FALSE(cache.Lookup(1, &out));
  EXPECT_EQ(cache.GetStats().insertions, 0u);
}

TEST(ResultCacheTest, ClearDropsEverything) {
  ResultCache cache(ResultCache::Options{4, 1 << 20});
  for (uint64_t key = 0; key < 16; ++key) cache.Insert(key, MakeTables(1));
  cache.Clear();
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ResultCacheTest, StatsBinaryRoundTrip) {
  ResultCache cache(ResultCache::Options{2, 1 << 16});
  cache.Insert(1, MakeTables(2));
  CachedResult out;
  cache.Lookup(1, &out);
  cache.Lookup(99, &out);
  const ResultCache::Stats stats = cache.GetStats();

  std::stringstream buffer;
  BinaryWriter writer(&buffer);
  ASSERT_TRUE(WriteStats(stats, &writer).ok());
  BinaryReader reader(&buffer);
  Result<ResultCache::Stats> loaded = ReadStats(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->hits, stats.hits);
  EXPECT_EQ(loaded->misses, stats.misses);
  EXPECT_EQ(loaded->insertions, stats.insertions);
  EXPECT_EQ(loaded->entries, stats.entries);
  EXPECT_EQ(loaded->bytes, stats.bytes);
}

// ---------------------------------------------------------- query service

/// Small generated lake + engine shared by the service tests (indexes are
/// immutable; each test builds its own service).
class QueryServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions opts;
    opts.seed = 11;
    opts.num_domains = 6;
    opts.num_templates = 3;
    opts.tables_per_template = 4;
    opts.min_rows = 30;
    opts.max_rows = 60;
    lake_ = new GeneratedLake(LakeGenerator(opts).Generate());

    DiscoveryEngine::Options eopts;
    eopts.build_pexeso = false;
    eopts.build_mate = false;
    eopts.build_tus = false;
    eopts.build_santos = false;
    eopts.build_d3l = false;
    eopts.synthesize_kb = false;
    eopts.train_annotator = false;
    engine_ = new DiscoveryEngine(&lake_->catalog, &lake_->kb, eopts);
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete lake_;
    engine_ = nullptr;
    lake_ = nullptr;
  }

  static QueryRequest JoinRequest() {
    QueryRequest req;
    req.kind = QueryKind::kJoin;
    req.join_method = JoinMethod::kJosie;
    req.values = lake_->catalog.table(0).column(0).DistinctStrings();
    req.k = 5;
    return req;
  }

  static QueryRequest UnionRequest() {
    QueryRequest req;
    req.kind = QueryKind::kUnion;
    req.union_method = UnionMethod::kStarmie;
    req.union_table = &lake_->catalog.table(0);
    req.exclude = 0;
    req.k = 5;
    return req;
  }

  static GeneratedLake* lake_;
  static DiscoveryEngine* engine_;
};

GeneratedLake* QueryServiceTest::lake_ = nullptr;
DiscoveryEngine* QueryServiceTest::engine_ = nullptr;

TEST_F(QueryServiceTest, KeywordMatchesDirectEngineCall) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest req;
  req.kind = QueryKind::kKeyword;
  req.keyword = lake_->topic_of[0];
  req.k = 5;
  const QueryResponse response = service.Execute(req);
  ASSERT_TRUE(response.status.ok()) << response.status;
  const std::vector<TableResult> direct =
      engine_->Keyword(lake_->topic_of[0], 5);
  ASSERT_EQ(response.tables.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(response.tables[i].table_id, direct[i].table_id);
    EXPECT_DOUBLE_EQ(response.tables[i].score, direct[i].score);
  }
}

TEST_F(QueryServiceTest, JoinMatchesDirectEngineCall) {
  QueryService service(engine_, QueryService::Options{});
  const QueryResponse response = service.Execute(JoinRequest());
  ASSERT_TRUE(response.status.ok()) << response.status;
  const auto direct =
      engine_->Joinable(JoinRequest().values, JoinMethod::kJosie, 5);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(response.columns.size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(response.columns[i].column, (*direct)[i].column);
    EXPECT_DOUBLE_EQ(response.columns[i].score, (*direct)[i].score);
  }
}

TEST_F(QueryServiceTest, UnionExecutes) {
  QueryService service(engine_, QueryService::Options{});
  const QueryResponse response = service.Execute(UnionRequest());
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_FALSE(response.tables.empty());
  for (const TableResult& t : response.tables) {
    EXPECT_NE(t.table_id, 0u);  // exclude honored
  }
}

TEST_F(QueryServiceTest, CorrelatedExecutes) {
  QueryService service(engine_, QueryService::Options{});
  // Build a correlated query from a lake table: its first string column as
  // key, first numeric column as target.
  const Table& table = lake_->catalog.table(0);
  QueryRequest req;
  req.kind = QueryKind::kCorrelated;
  req.k = 5;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (!table.column(c).IsNumeric() && req.values.empty()) {
      req.values = table.column(c).NonNullStrings();
    }
    if (table.column(c).IsNumeric() && req.numeric_values.empty()) {
      req.numeric_values = table.column(c).Numbers();
    }
  }
  ASSERT_FALSE(req.values.empty());
  ASSERT_FALSE(req.numeric_values.empty());
  const size_t rows = std::min(req.values.size(), req.numeric_values.size());
  req.values.resize(rows);
  req.numeric_values.resize(rows);
  const QueryResponse response = service.Execute(req);
  EXPECT_TRUE(response.status.ok()) << response.status;
}

TEST_F(QueryServiceTest, SecondIdenticalQueryHitsCache) {
  QueryService service(engine_, QueryService::Options{});
  const QueryResponse cold = service.Execute(JoinRequest());
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.cache_hit);
  const QueryResponse warm = service.Execute(JoinRequest());
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  ASSERT_EQ(warm.columns.size(), cold.columns.size());
  for (size_t i = 0; i < cold.columns.size(); ++i) {
    EXPECT_EQ(warm.columns[i].column, cold.columns[i].column);
    EXPECT_DOUBLE_EQ(warm.columns[i].score, cold.columns[i].score);
  }
  const ResultCache::Stats stats = service.cache().GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(QueryServiceTest, BypassCacheSkipsLookupAndInsert) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest req = JoinRequest();
  req.bypass_cache = true;
  EXPECT_FALSE(service.Execute(req).cache_hit);
  EXPECT_FALSE(service.Execute(req).cache_hit);
  const ResultCache::Stats stats = service.cache().GetStats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 0u);
}

TEST_F(QueryServiceTest, CacheKeyIgnoresJoinValueOrder) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest a = JoinRequest();
  QueryRequest b = a;
  std::reverse(b.values.begin(), b.values.end());
  EXPECT_EQ(service.CacheKey(a), service.CacheKey(b));
  b.k = a.k + 1;
  EXPECT_NE(service.CacheKey(a), service.CacheKey(b));
}

TEST_F(QueryServiceTest, InvalidateCacheBumpsEpochAndMisses) {
  QueryService service(engine_, QueryService::Options{});
  const uint64_t key_before = service.CacheKey(JoinRequest());
  ASSERT_TRUE(service.Execute(JoinRequest()).status.ok());
  service.InvalidateCache();
  EXPECT_NE(service.CacheKey(JoinRequest()), key_before);
  const QueryResponse after = service.Execute(JoinRequest());
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit);
}

TEST_F(QueryServiceTest, ZeroDeadlineReturnsDeadlineExceeded) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest req = JoinRequest();
  req.deadline = std::chrono::milliseconds(0);
  const QueryResponse response = service.Execute(req);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.columns.empty());
  // The expired query must not have populated the cache.
  EXPECT_EQ(service.cache().GetStats().insertions, 0u);
  // And a later unconstrained run is a miss, not a hit.
  const QueryResponse fresh = service.Execute(JoinRequest());
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_FALSE(fresh.cache_hit);
}

TEST_F(QueryServiceTest, ZeroDeadlineOnEveryKind) {
  QueryService service(engine_, QueryService::Options{});
  for (QueryRequest req :
       {JoinRequest(), UnionRequest()}) {
    req.deadline = std::chrono::milliseconds(0);
    EXPECT_EQ(service.Execute(req).status.code(),
              StatusCode::kDeadlineExceeded);
  }
}

TEST_F(QueryServiceTest, CancelledQueryReturnsCancelledAndSkipsCache) {
  // Deterministic mid-flight cancellation: the worker blocks in the
  // pre-execute hook until the test has cancelled the token.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  QueryService::Options opts;
  bool first = true;
  opts.pre_execute_hook = [&entered, release_future,
                           &first](const QueryRequest&) {
    if (!first) return;
    first = false;
    entered.set_value();
    release_future.wait();
  };
  QueryService service(engine_, opts);
  Result<SubmittedQuery> submitted = service.Submit(JoinRequest());
  ASSERT_TRUE(submitted.ok());
  entered.get_future().wait();
  submitted->cancel->Cancel();
  release.set_value();
  const QueryResponse response = submitted->response.get();
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(service.cache().GetStats().insertions, 0u);
}

TEST_F(QueryServiceTest, OverloadedWhenAdmissionQueueFull) {
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  QueryService::Options opts;
  opts.num_workers = 1;
  opts.max_pending = 1;
  bool first = true;
  opts.pre_execute_hook = [&entered, release_future,
                           &first](const QueryRequest&) {
    if (!first) return;
    first = false;
    entered.set_value();
    release_future.wait();
  };
  QueryService service(engine_, opts);
  Result<SubmittedQuery> first_query = service.Submit(JoinRequest());
  ASSERT_TRUE(first_query.ok());
  entered.get_future().wait();
  // The slot is occupied: the next submit must be rejected immediately.
  Result<SubmittedQuery> second_query = service.Submit(JoinRequest());
  ASSERT_FALSE(second_query.ok());
  EXPECT_EQ(second_query.status().code(), StatusCode::kOverloaded);
  release.set_value();
  EXPECT_TRUE(first_query->response.get().status.ok());
  EXPECT_EQ(service.metrics().GetCounter("serve.queries.rejected")->value(),
            1u);
}

TEST_F(QueryServiceTest, HealthReportsTheAdaptiveLimitAndInFlightQueries) {
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  QueryService::Options opts;
  opts.num_workers = 1;
  opts.max_pending = 8;
  opts.pre_execute_hook = [&entered, release_future](const QueryRequest&) {
    entered.set_value();
    release_future.wait();
  };
  QueryService service(engine_, opts);

  QueryService::HealthSnapshot health = service.Health();
  EXPECT_EQ(health.admission_limit, service.admission().limit());
  EXPECT_LE(health.admission_limit, opts.max_pending);
  EXPECT_EQ(health.admission_in_flight, 0u);

  // A query held in the hook occupies one admission slot until it ends.
  Result<SubmittedQuery> held = service.Submit(JoinRequest());
  ASSERT_TRUE(held.ok());
  entered.get_future().wait();
  health = service.Health();
  EXPECT_EQ(health.admission_in_flight, 1u);
  EXPECT_EQ(health.admission_limit, service.admission().limit());
  EXPECT_EQ(service.metrics().GetGauge("serve.admission.in_flight")->value(),
            1u);

  release.set_value();
  EXPECT_TRUE(held->response.get().status.ok());
  EXPECT_EQ(service.Health().admission_in_flight, 0u);
}

TEST_F(QueryServiceTest, UnbuiltJoinIndexFailsAsUnavailable) {
  // No JOSIE index and neither brownout tier (approx, LSH Ensemble): a
  // JOSIE join cannot be answered at all.
  DiscoveryEngine::Options eopts;
  eopts.build_josie = false;
  eopts.build_approx = false;
  eopts.build_lsh_join = false;
  eopts.build_pexeso = false;
  eopts.build_mate = false;
  eopts.build_correlated = false;
  eopts.build_tus = false;
  eopts.build_santos = false;
  eopts.build_starmie = false;
  eopts.build_d3l = false;
  eopts.synthesize_kb = false;
  eopts.train_annotator = false;
  const DiscoveryEngine engine(&lake_->catalog, &lake_->kb, eopts);
  QueryService::Options opts;
  opts.enable_cache = false;
  QueryService service(&engine, opts);

  const QueryResponse join = service.Execute(JoinRequest());
  EXPECT_EQ(join.status.code(), StatusCode::kFailedPrecondition);
  // Counted as a modality that cannot serve, not as a generic failure.
  EXPECT_EQ(service.metrics().GetCounter("serve.queries.unavailable")->value(),
            1u);
  EXPECT_EQ(service.metrics().GetCounter("serve.queries.failed")->value(),
            0u);
}

TEST_F(QueryServiceTest, InvalidRequestsRejectedUpfront) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest empty_keyword;
  empty_keyword.kind = QueryKind::kKeyword;
  EXPECT_EQ(service.Submit(std::move(empty_keyword)).status().code(),
            StatusCode::kInvalidArgument);
  QueryRequest no_table;
  no_table.kind = QueryKind::kUnion;
  EXPECT_EQ(service.Submit(std::move(no_table)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(QueryServiceTest, JoinWithoutValuesRejected) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest req;
  req.kind = QueryKind::kJoin;
  const Result<SubmittedQuery> submitted = service.Submit(std::move(req));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryServiceTest, CorrelatedWithoutEitherColumnRejected) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest no_numeric;
  no_numeric.kind = QueryKind::kCorrelated;
  no_numeric.values = {"a", "b"};
  EXPECT_EQ(service.Submit(std::move(no_numeric)).status().code(),
            StatusCode::kInvalidArgument);
  QueryRequest no_keys;
  no_keys.kind = QueryKind::kCorrelated;
  no_keys.numeric_values = {1.0, 2.0};
  EXPECT_EQ(service.Submit(std::move(no_keys)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(QueryServiceTest, CorrelatedMismatchedColumnLengthsRejected) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest req;
  req.kind = QueryKind::kCorrelated;
  req.values = {"a", "b", "c"};
  req.numeric_values = {1.0, 2.0};
  const Result<SubmittedQuery> submitted = service.Submit(std::move(req));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
  // The message names both lengths so the caller can fix the request.
  EXPECT_NE(submitted.status().message().find("3"), std::string::npos);
  EXPECT_NE(submitted.status().message().find("2"), std::string::npos);
}

TEST_F(QueryServiceTest, RejectedRequestsNeverReachExecutionOrMetrics) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest bad;
  bad.kind = QueryKind::kCorrelated;
  bad.values = {"a"};
  ASSERT_FALSE(service.Submit(std::move(bad)).ok());
  EXPECT_EQ(service.metrics().GetCounter("serve.queries.admitted")->value(),
            0u);
  EXPECT_EQ(service.pending(), 0u);
}

TEST_F(QueryServiceTest, ConcurrentMixedWorkloadIsConsistent) {
  QueryService::Options opts;
  opts.num_workers = 4;
  opts.max_pending = 1024;
  QueryService service(engine_, opts);
  const QueryResponse reference = service.Execute(JoinRequest());
  ASSERT_TRUE(reference.status.ok());

  std::vector<SubmittedQuery> inflight;
  for (int i = 0; i < 64; ++i) {
    QueryRequest req;
    if (i % 3 == 0) {
      req = JoinRequest();
    } else if (i % 3 == 1) {
      req.kind = QueryKind::kKeyword;
      req.keyword = lake_->topic_of[i % lake_->topic_of.size()];
      req.k = 5;
    } else {
      req = UnionRequest();
    }
    Result<SubmittedQuery> submitted = service.Submit(std::move(req));
    ASSERT_TRUE(submitted.ok());
    inflight.push_back(std::move(submitted).value());
  }
  size_t join_checked = 0;
  for (size_t i = 0; i < inflight.size(); ++i) {
    const QueryResponse response = inflight[i].response.get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    if (i % 3 == 0) {
      ASSERT_EQ(response.columns.size(), reference.columns.size());
      for (size_t j = 0; j < response.columns.size(); ++j) {
        EXPECT_DOUBLE_EQ(response.columns[j].score,
                         reference.columns[j].score);
      }
      ++join_checked;
    }
  }
  EXPECT_GT(join_checked, 0u);
  EXPECT_GT(service.cache().GetStats().hits, 0u);
  EXPECT_EQ(service.pending(), 0u);
  // Every admitted query was recorded in a latency histogram.
  uint64_t recorded = 0;
  for (const auto& row : service.metrics().Snap().histograms) {
    if (row.name.rfind("serve.latency.", 0) == 0) recorded += row.count;
  }
  EXPECT_EQ(recorded, 65u);  // 64 + the reference query
}

TEST_F(QueryServiceTest, CacheHitCompletesWithoutAWorker) {
  // The only worker blocks in the hook on a keyword query; a cached join
  // query must still complete, because hits never enter the pool.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  QueryService::Options opts;
  opts.num_workers = 1;
  opts.pre_execute_hook = [&entered, release_future](const QueryRequest& r) {
    if (r.kind != QueryKind::kKeyword) return;
    entered.set_value();
    release_future.wait();
  };
  QueryService service(engine_, opts);
  ASSERT_TRUE(service.Execute(JoinRequest()).status.ok());

  QueryRequest keyword;
  keyword.kind = QueryKind::kKeyword;
  keyword.keyword = lake_->topic_of[0];
  Result<SubmittedQuery> blocked = service.Submit(std::move(keyword));
  ASSERT_TRUE(blocked.ok());
  entered.get_future().wait();

  Result<SubmittedQuery> hit = service.Submit(JoinRequest());
  ASSERT_TRUE(hit.ok());
  const bool ready = hit->response.wait_for(std::chrono::seconds(1)) ==
                     std::future_status::ready;
  release.set_value();
  ASSERT_TRUE(ready) << "cache hit waited behind the blocked worker";
  const QueryResponse response = hit->response.get();
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_TRUE(response.cache_hit);
  EXPECT_TRUE(blocked->response.get().status.ok());
}

TEST_F(QueryServiceTest, OneLookupAndOneHookPerQuery) {
  std::atomic<uint64_t> hooks{0};
  QueryService::Options opts;
  opts.max_pending = 1024;
  opts.pre_execute_hook = [&hooks](const QueryRequest&) {
    hooks.fetch_add(1, std::memory_order_relaxed);
  };
  QueryService service(engine_, opts);
  // One warm entry makes hits independent of how fast the pool drains
  // while the clients are still submitting.
  ASSERT_TRUE(service.Execute(JoinRequest()).status.ok());
  constexpr int kPerThread = 48;
  constexpr uint64_t kAdmitted = 2 * kPerThread + 1;
  std::atomic<uint64_t> cacheable{1};
  auto client = [&](int offset) {
    std::vector<SubmittedQuery> inflight;
    for (int i = 0; i < kPerThread; ++i) {
      QueryRequest req;
      switch ((i + offset) % 4) {
        case 0:
          req = JoinRequest();
          break;
        case 1:
          req.kind = QueryKind::kKeyword;
          req.keyword = lake_->topic_of[i % lake_->topic_of.size()];
          break;
        case 2:
          req = UnionRequest();
          break;
        default:
          req = JoinRequest();
          req.bypass_cache = true;
          break;
      }
      if (!req.bypass_cache) cacheable.fetch_add(1, std::memory_order_relaxed);
      Result<SubmittedQuery> submitted = service.Submit(std::move(req));
      ASSERT_TRUE(submitted.ok()) << submitted.status();
      inflight.push_back(std::move(submitted).value());
    }
    for (SubmittedQuery& q : inflight) {
      EXPECT_TRUE(q.response.get().status.ok());
    }
  };
  std::thread a(client, 0);
  std::thread b(client, 1);
  a.join();
  b.join();

  const ResultCache::Stats stats = service.cache().GetStats();
  EXPECT_EQ(stats.hits + stats.misses, cacheable.load());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(service.metrics().GetCounter("serve.cache.hits")->value(),
            stats.hits);
  EXPECT_EQ(service.metrics().GetCounter("serve.cache.misses")->value(),
            stats.misses);
  EXPECT_EQ(hooks.load(), kAdmitted);
  EXPECT_EQ(service.metrics().GetCounter("serve.queries.admitted")->value(),
            kAdmitted);
  EXPECT_EQ(service.pending(), 0u);
}

TEST_F(QueryServiceTest, ZeroDeadlineOnACachedQueryCountsNoHit) {
  QueryService service(engine_, QueryService::Options{});
  ASSERT_TRUE(service.Execute(JoinRequest()).status.ok());
  const ResultCache::Stats warm = service.cache().GetStats();
  QueryRequest req = JoinRequest();
  req.deadline = std::chrono::milliseconds(0);
  const QueryResponse response = service.Execute(req);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(response.cache_hit);
  EXPECT_TRUE(response.columns.empty());
  const ResultCache::Stats after = service.cache().GetStats();
  EXPECT_EQ(after.hits, warm.hits);
  EXPECT_EQ(after.misses, warm.misses);
  EXPECT_EQ(service.metrics()
                .GetCounter("serve.queries.deadline_exceeded")
                ->value(),
            1u);
}

TEST_F(QueryServiceTest, LiveQueryAfterPublishMissesAndSeesTheNewTable) {
  // Non-owning handles: the suite's catalog and engine outlive the test.
  ingest::LiveEngine::Options live_options;
  live_options.kb = &lake_->kb;
  ingest::LiveEngine live(
      std::shared_ptr<const DataLakeCatalog>(std::shared_ptr<void>(),
                                             &lake_->catalog),
      std::shared_ptr<const DiscoveryEngine>(std::shared_ptr<void>(),
                                             engine_),
      live_options);
  QueryService service(&live, QueryService::Options{});
  QueryRequest req = JoinRequest();
  req.k = 10;
  ASSERT_FALSE(service.Execute(req).cache_hit);
  ASSERT_TRUE(service.Execute(req).cache_hit);

  Table copy = lake_->catalog.table(0);
  copy.set_name("fresh_copy_of_table_0");
  ingest::LiveEngine::Batch batch;
  batch.adds.push_back(std::move(copy));
  ASSERT_TRUE(live.ApplyBatch(std::move(batch)).adds[0].ok());

  const QueryResponse after = service.Execute(req);
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_FALSE(after.cache_hit);
  const std::shared_ptr<const ingest::Generation> gen = live.Acquire();
  bool sees_new_table = false;
  for (const ColumnResult& r : after.columns) {
    const Result<std::string> name = gen->TableName(r.column.table_id);
    sees_new_table |= name.ok() && *name == "fresh_copy_of_table_0";
  }
  EXPECT_TRUE(sees_new_table);
}

}  // namespace
}  // namespace lake::serve
