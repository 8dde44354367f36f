#include <algorithm>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_engine.h"
#include "cluster/ring.h"
#include "cluster/topk_merge.h"
#include "lakegen/generator.h"
#include "serve/metrics.h"
#include "serve/query_service.h"
#include "table/csv.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "util/string_util.h"

namespace lake::cluster {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lake_cluster_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ------------------------------------------------------------------- ring

TEST(HashRingTest, OwnerIsDeterministicAndAMember) {
  HashRing ring;
  for (uint32_t s = 0; s < 4; ++s) ring.AddShard(s);
  HashRing rebuilt;
  for (uint32_t s = 3; s != UINT32_MAX && s < 4; --s) rebuilt.AddShard(s);
  for (int i = 0; i < 200; ++i) {
    const std::string name = "table_" + std::to_string(i);
    const uint32_t owner = ring.OwnerOf(name);
    EXPECT_LT(owner, 4u);
    EXPECT_EQ(owner, ring.OwnerOf(name));  // stable across calls
    // Insertion order must not matter: the ring is a pure function of the
    // shard set.
    EXPECT_EQ(owner, rebuilt.OwnerOf(name));
  }
}

TEST(HashRingTest, VirtualNodesBalanceOwnership) {
  HashRing ring;
  for (uint32_t s = 0; s < 4; ++s) ring.AddShard(s);

  std::map<uint32_t, size_t> owned;
  const size_t kNames = 4000;
  for (size_t i = 0; i < kNames; ++i) {
    ++owned[ring.OwnerOf(StrFormat("t%zu", i))];
  }
  // Perfect balance would be 25% each; 64 vnodes keep every shard within
  // a loose band around it.
  for (uint32_t s = 0; s < 4; ++s) {
    const double frac = static_cast<double>(owned[s]) / kNames;
    EXPECT_GT(frac, 0.10) << "shard " << s;
    EXPECT_LT(frac, 0.45) << "shard " << s;
  }

  const std::vector<double> fractions = ring.OwnershipFractions();
  ASSERT_EQ(fractions.size(), 4u);
  double sum = 0;
  for (double f : fractions) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(HashRingTest, GrowingMovesOnlyToTheNewShard) {
  HashRing before;
  for (uint32_t s = 0; s < 3; ++s) before.AddShard(s);
  HashRing after = before;
  after.AddShard(3);

  size_t moved = 0;
  const size_t kNames = 3000;
  for (size_t i = 0; i < kNames; ++i) {
    const std::string name = StrFormat("t%zu", i);
    const uint32_t old_owner = before.OwnerOf(name);
    const uint32_t new_owner = after.OwnerOf(name);
    if (old_owner != new_owner) {
      // Consistent hashing: a name only ever moves TO the new shard.
      EXPECT_EQ(new_owner, 3u) << name;
      ++moved;
    }
  }
  // Expected movement is ~1/4 of the keyspace; anything near 1/2 would
  // mean the ring rehashes like a modulo partitioner.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(static_cast<double>(moved) / kNames, 0.45);
}

// ------------------------------------------------------------- topk merge

struct MiniHit {
  std::string name;
  double score = 0;
};

TEST(TopkMergeTest, NWayMergesByScoreWithTieBreak) {
  std::vector<std::vector<MiniHit>> lists = {
      {{"b", 3.0}, {"d", 1.0}},
      {{"c", 3.0}, {"e", 2.0}},
      {{"a", 3.0}}};
  const std::vector<MiniHit> merged = MergeRankedTopK(
      std::move(lists), 4,
      [](const MiniHit& x, const MiniHit& y) { return x.name < y.name; });
  ASSERT_EQ(merged.size(), 4u);
  // Ties at 3.0 ordered by name regardless of which list they came from.
  EXPECT_EQ(merged[0].name, "a");
  EXPECT_EQ(merged[1].name, "b");
  EXPECT_EQ(merged[2].name, "c");
  EXPECT_EQ(merged[3].name, "e");
}

TEST(TopkMergeTest, TwoWayPrefersFirstListOnTies) {
  std::vector<MiniHit> base = {{"base", 2.0}};
  std::vector<MiniHit> delta = {{"delta", 2.0}, {"delta_hi", 5.0}};
  const std::vector<MiniHit> merged =
      MergeRankedTopK(std::move(base), std::move(delta), 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].name, "delta_hi");
  EXPECT_EQ(merged[1].name, "base");   // tie goes to the first list
  EXPECT_EQ(merged[2].name, "delta");
}

TEST(TopkMergeTest, CutsToK) {
  std::vector<std::vector<MiniHit>> lists = {{{"a", 9}, {"b", 8}},
                                             {{"c", 7}, {"d", 6}}};
  EXPECT_EQ(MergeRankedTopK(std::move(lists), 3,
                            [](const MiniHit& x, const MiniHit& y) {
                              return x.name < y.name;
                            })
                .size(),
            3u);
}

// ---------------------------------------------------------- metric families

TEST(MetricFamilyTest, LabeledMembersFlattenIntoRegistry) {
  serve::MetricsRegistry metrics;
  serve::CounterFamily* queries =
      metrics.GetCounterFamily("cluster.shard.queries", "shard");
  queries->WithLabel(uint64_t{3})->Add(7);
  queries->WithLabel(uint64_t{0})->Add();
  serve::GaugeFamily* tables =
      metrics.GetGaugeFamily("cluster.shard.tables", "shard");
  tables->WithLabel(uint64_t{3})->Set(42);

  // Same (name, label) -> same counter instance.
  EXPECT_EQ(queries->WithLabel(uint64_t{3}), queries->WithLabel("3"));

  const serve::MetricsRegistry::Snapshot snap = metrics.Snap();
  auto counter = [&](const std::string& name) -> uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    return UINT64_MAX;
  };
  EXPECT_EQ(counter("cluster.shard.queries{shard=3}"), 7u);
  EXPECT_EQ(counter("cluster.shard.queries{shard=0}"), 1u);
  bool found_gauge = false;
  for (const auto& [n, v] : snap.gauges) {
    if (n == "cluster.shard.tables{shard=3}") {
      found_gauge = true;
      EXPECT_EQ(v, 42u);
    }
  }
  EXPECT_TRUE(found_gauge);
}

// --------------------------------------------------------- cluster engine

DiscoveryEngine::Options BaseOptions() {
  DiscoveryEngine::Options eopts;
  eopts.build_pexeso = false;
  eopts.build_mate = false;
  eopts.build_santos = false;
  eopts.build_d3l = false;
  eopts.synthesize_kb = false;
  eopts.train_annotator = false;
  return eopts;
}

/// Shared immutable lake + unpartitioned reference engine; the cluster
/// engines for each shard count are built once and reused (construction
/// is the expensive part — every test after that only queries).
class ClusterEngineTest : public ::testing::Test {
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
    reference_ =
        new DiscoveryEngine(&lake_->catalog, &lake_->kb, BaseOptions());
    clusters_ = new std::map<size_t, std::unique_ptr<ClusterEngine>>();
  }

  static void TearDownTestSuite() {
    delete clusters_;
    delete reference_;
    delete lake_;
    clusters_ = nullptr;
    reference_ = nullptr;
    lake_ = nullptr;
  }

  void TearDown() override { FailpointRegistry::Instance().ClearAll(); }

  static const DataLakeCatalog& lake() { return lake_->catalog; }

  static ClusterEngine::Options ClusterOptions(size_t shards,
                                               size_t replicas = 1) {
    ClusterEngine::Options opts;
    opts.num_shards = shards;
    opts.num_replicas = replicas;
    opts.engine.base_options = BaseOptions();
    opts.engine.kb = &lake_->kb;
    return opts;
  }

  /// Cached cluster over the shared lake with N shards, R = 1.
  static const ClusterEngine& Cluster(size_t shards) {
    auto it = clusters_->find(shards);
    if (it == clusters_->end()) {
      it = clusters_
               ->emplace(shards, std::make_unique<ClusterEngine>(
                                     lake(), ClusterOptions(shards)))
               .first;
    }
    return *it->second;
  }

  /// Full-coverage k: no k-boundary tie can make two correct rankings
  /// diverge on membership.
  static size_t FullK() { return lake().num_tables() + 8; }

  struct NamedHit {
    std::string name;
    size_t column = 0;
    double score = 0;
  };

  static void SortCanonical(std::vector<NamedHit>* hits) {
    std::sort(hits->begin(), hits->end(),
              [](const NamedHit& a, const NamedHit& b) {
                if (a.score != b.score) return a.score > b.score;
                if (a.name != b.name) return a.name < b.name;
                return a.column < b.column;
              });
  }

  static std::vector<NamedHit> Canon(const std::vector<TableResult>& rs) {
    std::vector<NamedHit> out;
    for (const TableResult& r : rs) {
      out.push_back({lake().table(r.table_id).name(), 0, r.score});
    }
    SortCanonical(&out);
    return out;
  }
  static std::vector<NamedHit> Canon(const std::vector<ColumnResult>& rs) {
    std::vector<NamedHit> out;
    for (const ColumnResult& r : rs) {
      out.push_back({lake().table(r.column.table_id).name(),
                     r.column.column_index, r.score});
    }
    SortCanonical(&out);
    return out;
  }
  static std::vector<NamedHit> Canon(const std::vector<TableHit>& hs) {
    std::vector<NamedHit> out;
    for (const TableHit& h : hs) out.push_back({h.table, 0, h.score});
    SortCanonical(&out);
    return out;
  }
  static std::vector<NamedHit> Canon(const std::vector<ColumnHit>& hs) {
    std::vector<NamedHit> out;
    for (const ColumnHit& h : hs) {
      out.push_back({h.table, h.column_index, h.score});
    }
    SortCanonical(&out);
    return out;
  }

  static void ExpectSameRanking(const std::vector<NamedHit>& expected,
                                const std::vector<NamedHit>& actual,
                                const std::string& context) {
    ASSERT_EQ(expected.size(), actual.size()) << context;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].name, actual[i].name)
          << context << " rank " << i;
      EXPECT_EQ(expected[i].column, actual[i].column)
          << context << " rank " << i;
      EXPECT_DOUBLE_EQ(expected[i].score, actual[i].score)
          << context << " rank " << i << " (" << expected[i].name << ")";
    }
  }

  static std::vector<std::string> JoinQuery() {
    return lake().table(0).column(0).DistinctStrings();
  }

  /// A correlated query drawn from `table`: its first string column as the
  /// join key, its first numeric column as the numbers (both cut to the
  /// shorter length). Empty when the table lacks either column.
  static void CorrelatedQuery(const Table& table,
                              std::vector<std::string>* keys,
                              std::vector<double>* numbers) {
    keys->clear();
    numbers->clear();
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (!table.column(c).IsNumeric() && keys->empty()) {
        *keys = table.column(c).NonNullStrings();
      }
      if (table.column(c).IsNumeric() && numbers->empty()) {
        *numbers = table.column(c).Numbers();
      }
    }
    const size_t rows = std::min(keys->size(), numbers->size());
    keys->resize(rows);
    numbers->resize(rows);
  }

  static GeneratedLake* lake_;
  static DiscoveryEngine* reference_;
  static std::map<size_t, std::unique_ptr<ClusterEngine>>* clusters_;
};

GeneratedLake* ClusterEngineTest::lake_ = nullptr;
DiscoveryEngine* ClusterEngineTest::reference_ = nullptr;
std::map<size_t, std::unique_ptr<ClusterEngine>>*
    ClusterEngineTest::clusters_ = nullptr;

TEST_F(ClusterEngineTest, PartitionsTheWholeLake) {
  const ClusterEngine& cluster = Cluster(4);
  EXPECT_EQ(cluster.num_shards(), 4u);
  EXPECT_EQ(cluster.TotalVisibleTables(), lake().num_tables());

  size_t health_total = 0;
  for (const ClusterEngine::ShardHealth& sh : cluster.Health()) {
    health_total += sh.tables;
    EXPECT_EQ(sh.replicas_alive, 1u);
  }
  EXPECT_EQ(health_total, lake().num_tables());

  // Every table lands on the shard the public ring lookup names.
  for (TableId id = 0; id < lake().num_tables(); ++id) {
    EXPECT_LT(cluster.OwnerOf(lake().table(id).name()), 4u);
  }
}

TEST_F(ClusterEngineTest, KeywordMatchesSingleEngineForAllShardCounts) {
  for (size_t shards : {1u, 2u, 4u, 7u}) {
    for (size_t t = 0; t < lake_->topic_of.size(); ++t) {
      const std::string& topic = lake_->topic_of[t];
      const std::vector<NamedHit> expected =
          Canon(reference_->Keyword(topic, FullK()));
      const TableQueryResponse got =
          Cluster(shards).Keyword(topic, FullK());
      ASSERT_TRUE(got.status.ok()) << got.status;
      EXPECT_FALSE(got.degraded);
      ExpectSameRanking(expected, Canon(got.hits),
                        "keyword topic " + std::to_string(t) + " shards=" +
                            std::to_string(shards));
    }
  }
}

TEST_F(ClusterEngineTest, JoinableMatchesSingleEngineForAllShardCounts) {
  const std::vector<std::string> query = JoinQuery();
  for (JoinMethod method :
       {JoinMethod::kJosie, JoinMethod::kExactContainment}) {
    const auto direct = reference_->Joinable(query, method, FullK() * 4);
    ASSERT_TRUE(direct.ok()) << direct.status();
    const std::vector<NamedHit> expected = Canon(*direct);
    for (size_t shards : {1u, 2u, 4u, 7u}) {
      const ColumnQueryResponse got =
          Cluster(shards).Joinable(query, method, FullK() * 4);
      ASSERT_TRUE(got.status.ok()) << got.status;
      ExpectSameRanking(expected, Canon(got.hits),
                        "join method " +
                            std::to_string(static_cast<int>(method)) +
                            " shards=" + std::to_string(shards));
    }
  }
}

TEST_F(ClusterEngineTest, UnionableMatchesSingleEngineForAllShardCounts) {
  const Table& query = lake().table(0);
  for (UnionMethod method : {UnionMethod::kTus, UnionMethod::kStarmie}) {
    const auto direct =
        reference_->Unionable(query, method, FullK(), /*exclude=*/0);
    ASSERT_TRUE(direct.ok()) << direct.status();
    const std::vector<NamedHit> expected = Canon(*direct);
    for (size_t shards : {1u, 2u, 4u, 7u}) {
      const TableQueryResponse got = Cluster(shards).Unionable(
          query, method, FullK(), /*exclude_name=*/query.name());
      ASSERT_TRUE(got.status.ok()) << got.status;
      for (const TableHit& h : got.hits) {
        EXPECT_NE(h.table, query.name());  // exclusion by name
      }
      ExpectSameRanking(expected, Canon(got.hits),
                        "union method " +
                            std::to_string(static_cast<int>(method)) +
                            " shards=" + std::to_string(shards));
    }
  }
}

TEST_F(ClusterEngineTest, CorrelatedMatchesSingleEngine) {
  std::vector<std::string> keys;
  std::vector<double> numbers;
  CorrelatedQuery(lake().table(0), &keys, &numbers);
  ASSERT_FALSE(keys.empty());

  const CorrelatedJoinSearch* correlated = reference_->correlated_join();
  ASSERT_NE(correlated, nullptr);
  const auto direct = correlated->Search(keys, numbers, FullK() * 4);
  ASSERT_TRUE(direct.ok()) << direct.status();
  std::vector<NamedHit> expected;
  for (const auto& r : *direct) {
    expected.push_back(
        {lake().table(r.table_id).name(), r.numeric_column, r.score});
  }
  SortCanonical(&expected);

  for (size_t shards : {2u, 4u}) {
    const ColumnQueryResponse got =
        Cluster(shards).Correlated(keys, numbers, FullK() * 4);
    ASSERT_TRUE(got.status.ok()) << got.status;
    ExpectSameRanking(expected, Canon(got.hits),
                      "correlated shards=" + std::to_string(shards));
  }
}

TEST_F(ClusterEngineTest, CorrelatedFillsKUnderTombstones) {
  // Pick a query whose top hit is a table with exactly one (key, numeric)
  // pair in the answer and at least two other hits behind it.
  std::vector<std::string> keys;
  std::vector<double> numbers;
  std::string removed;
  std::vector<NamedHit> survivors;
  for (TableId id = 0; id < lake().num_tables() && removed.empty(); ++id) {
    CorrelatedQuery(lake().table(id), &keys, &numbers);
    if (keys.empty()) continue;
    const auto direct = reference_->Correlated(keys, numbers, FullK() * 4);
    ASSERT_TRUE(direct.ok()) << direct.status();
    if (direct->empty()) continue;
    const std::string top = lake().table((*direct)[0].column.table_id).name();
    std::vector<NamedHit> rest;
    for (const ColumnResult& r : *direct) {
      const std::string& name = lake().table(r.column.table_id).name();
      if (name != top) rest.push_back({name, r.column.column_index, r.score});
    }
    if (direct->size() == rest.size() + 1 && rest.size() >= 2) {
      removed = top;
      survivors = std::move(rest);
    }
  }
  ASSERT_FALSE(removed.empty()) << "no suitable correlated query in the lake";
  SortCanonical(&survivors);

  // One shard holds every hit. With k = the surviving hits, the removed
  // table ranks inside the shard's own top k, so a shard that searched for
  // k and then dropped it would come back one short.
  ClusterEngine cluster(lake(), ClusterOptions(1));
  ingest::LiveEngine::Batch removal;
  removal.removes.push_back(removed);
  ASSERT_TRUE(cluster.ApplyBatch(std::move(removal)).removes[0].ok());
  const ColumnQueryResponse got =
      cluster.Correlated(keys, numbers, survivors.size());
  ASSERT_TRUE(got.status.ok()) << got.status;
  for (const ColumnHit& h : got.hits) EXPECT_NE(h.table, removed);
  ExpectSameRanking(survivors, Canon(got.hits),
                    "correlated with " + removed + " removed");
}

TEST_F(ClusterEngineTest, JoinFillsKWhenARemovedTableOwnsSeveralTopColumns) {
  // "dup" owns the three best columns for the query (each holds every
  // query value); t1..t6 follow with one column each and falling overlap.
  // Removing dup drops three of the base's top hits, more than the one
  // extra hit the tombstone count pads the base search with.
  std::vector<std::string> query;
  for (int v = 0; v < 20; ++v) query.push_back("val_" + std::to_string(v));
  auto base = std::make_shared<DataLakeCatalog>();
  auto add_csv = [&base](const std::string& name, const std::string& csv) {
    Result<Table> table = ReadCsvString(csv, name);
    ASSERT_TRUE(table.ok()) << table.status();
    ASSERT_TRUE(base->AddTable(std::move(table).value()).ok());
  };
  std::string dup = "a,b,c\n";
  for (const std::string& v : query) dup += v + "," + v + "," + v + "\n";
  add_csv("dup", dup);
  for (size_t t = 1; t <= 6; ++t) {
    std::string csv = "key\n";
    for (size_t v = 0; v < query.size(); ++v) {
      csv += v + 2 * t < query.size()
                 ? query[v] + "\n"
                 : std::string("t") + std::to_string(t) + "_" +
                       std::to_string(v) + "\n";
    }
    add_csv(std::string("t") + std::to_string(t), csv);
  }

  ingest::LiveEngine::Options live_options;
  live_options.base_options = BaseOptions();
  live_options.kb = &lake_->kb;
  ingest::LiveEngine live(base, live_options);
  ASSERT_TRUE(live.RemoveTable("dup").ok());
  ClusterEngine::Options cluster_options = ClusterOptions(1);
  cluster_options.engine = live_options;
  ClusterEngine cluster(*base, cluster_options);
  ingest::LiveEngine::Batch removal;
  removal.removes.push_back("dup");
  ASSERT_TRUE(cluster.ApplyBatch(std::move(removal)).removes[0].ok());

  serve::QueryRequest req;
  req.kind = serve::QueryKind::kJoin;
  req.join_method = JoinMethod::kJosie;
  req.values = query;
  req.k = 5;
  req.bypass_cache = true;
  req.require_exact_method = true;
  const std::vector<std::string> expected = {"t1", "t2", "t3", "t4", "t5"};

  serve::QueryService live_service(&live, serve::QueryService::Options{});
  const serve::QueryResponse live_got = live_service.Execute(req);
  ASSERT_TRUE(live_got.status.ok()) << live_got.status;
  const std::shared_ptr<const ingest::Generation> gen = live.Acquire();
  std::vector<std::string> live_names;
  for (const ColumnResult& r : live_got.columns) {
    live_names.push_back(gen->base_catalog().table(r.column.table_id).name());
  }
  EXPECT_EQ(live_names, expected);

  serve::QueryService cluster_service(&cluster,
                                      serve::QueryService::Options{});
  const serve::QueryResponse cluster_got = cluster_service.Execute(req);
  ASSERT_TRUE(cluster_got.status.ok()) << cluster_got.status;
  EXPECT_EQ(cluster_got.table_names, expected);
}

TEST_F(ClusterEngineTest, ApplyBatchRoutesAddsToOwningShard) {
  ClusterEngine cluster(lake(), ClusterOptions(3));
  const uint64_t version_before = cluster.version();

  Table derived = lake().table(1);
  derived.set_name("routed_ingest_copy");
  ingest::LiveEngine::Batch batch;
  batch.adds.push_back(std::move(derived));

  const ingest::LiveEngine::BatchOutcome outcome =
      cluster.ApplyBatch(std::move(batch));
  ASSERT_EQ(outcome.adds.size(), 1u);
  ASSERT_TRUE(outcome.adds[0].ok()) << outcome.adds[0].status();
  EXPECT_TRUE(outcome.published);
  EXPECT_GT(cluster.version(), version_before);
  EXPECT_EQ(cluster.TotalVisibleTables(), lake().num_tables() + 1);

  // The new table answers union queries against its origin's template and
  // reports the shard the ring owns it on.
  const uint32_t owner = cluster.OwnerOf("routed_ingest_copy");
  const TableQueryResponse got =
      cluster.Unionable(lake().table(1), UnionMethod::kTus, FullK());
  ASSERT_TRUE(got.status.ok()) << got.status;
  bool found = false;
  for (const TableHit& h : got.hits) {
    if (h.table == "routed_ingest_copy") {
      found = true;
      EXPECT_EQ(h.shard, owner);
    }
  }
  EXPECT_TRUE(found);

  // Remove routes by the same ring: the table disappears cluster-wide.
  ingest::LiveEngine::Batch removal;
  removal.removes.push_back("routed_ingest_copy");
  const auto remove_outcome = cluster.ApplyBatch(std::move(removal));
  ASSERT_EQ(remove_outcome.removes.size(), 1u);
  EXPECT_TRUE(remove_outcome.removes[0].ok()) << remove_outcome.removes[0];
  EXPECT_EQ(cluster.TotalVisibleTables(), lake().num_tables());
}

TEST_F(ClusterEngineTest, CheckpointAndRecoverRoundTrip) {
  const std::string root = TestDir("recover");
  ClusterEngine::Options opts = ClusterOptions(2, /*replicas=*/2);
  opts.store_root = root;

  std::vector<NamedHit> expected;
  {
    ClusterEngine cluster(lake(), opts);
    Table derived = lake().table(2);
    derived.set_name("durable_delta_table");
    ingest::LiveEngine::Batch batch;
    batch.adds.push_back(std::move(derived));
    ASSERT_TRUE(cluster.ApplyBatch(std::move(batch)).adds[0].ok());

    ASSERT_TRUE(cluster.Checkpoint().ok());
    const TableQueryResponse before =
        cluster.Keyword(lake_->topic_of[0], FullK());
    ASSERT_TRUE(before.status.ok()) << before.status;
    expected = Canon(before.hits);
  }

  Result<std::unique_ptr<ClusterEngine>> recovered =
      ClusterEngine::Recover(opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->num_shards(), 2u);
  EXPECT_EQ((*recovered)->num_replicas(), 2u);
  EXPECT_EQ((*recovered)->TotalVisibleTables(), lake().num_tables() + 1);

  const TableQueryResponse after =
      (*recovered)->Keyword(lake_->topic_of[0], FullK());
  ASSERT_TRUE(after.status.ok()) << after.status;
  ExpectSameRanking(expected, Canon(after.hits), "recovered keyword");
}

TEST_F(ClusterEngineTest, CheckpointWithoutStoreRootFails) {
  ClusterEngine cluster(lake(), ClusterOptions(2));
  EXPECT_EQ(cluster.Checkpoint().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------- query service, cluster

TEST_F(ClusterEngineTest, QueryServiceClusterModeServesWithProvenance) {
  serve::QueryService service(&Cluster(4), serve::QueryService::Options{});

  serve::QueryRequest req;
  req.kind = serve::QueryKind::kKeyword;
  req.keyword = lake_->topic_of[0];
  req.k = FullK();
  const serve::QueryResponse response = service.Execute(req);
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_FALSE(response.degraded);
  EXPECT_TRUE(response.missing_shards.empty());
  ASSERT_FALSE(response.tables.empty());
  // Provenance is parallel to the hits and agrees with the ring.
  ASSERT_EQ(response.table_names.size(), response.tables.size());
  ASSERT_EQ(response.shards.size(), response.tables.size());
  for (size_t i = 0; i < response.tables.size(); ++i) {
    EXPECT_EQ(response.shards[i],
              Cluster(4).OwnerOf(response.table_names[i]));
  }

  const std::vector<NamedHit> expected =
      Canon(reference_->Keyword(req.keyword, req.k));
  std::vector<NamedHit> got;
  for (size_t i = 0; i < response.tables.size(); ++i) {
    got.push_back({response.table_names[i], 0, response.tables[i].score});
  }
  SortCanonical(&got);
  ExpectSameRanking(expected, got, "service keyword");

  // Second identical query: cache hit with the provenance intact.
  const serve::QueryResponse again = service.Execute(req);
  ASSERT_TRUE(again.status.ok()) << again.status;
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.table_names, response.table_names);
  EXPECT_EQ(again.shards, response.shards);

  // Cluster health is wired into the service snapshot.
  const serve::QueryService::HealthSnapshot health = service.Health();
  ASSERT_EQ(health.shards.size(), 4u);
  EXPECT_TRUE(health.ok);
}

TEST_F(ClusterEngineTest, QueryServiceClusterUnionExcludesByName) {
  serve::QueryService service(&Cluster(2), serve::QueryService::Options{});
  serve::QueryRequest req;
  req.kind = serve::QueryKind::kUnion;
  req.union_method = UnionMethod::kTus;
  req.union_table = &lake().table(0);
  req.exclude_name = lake().table(0).name();
  req.k = FullK();
  const serve::QueryResponse response = service.Execute(req);
  ASSERT_TRUE(response.status.ok()) << response.status;
  ASSERT_FALSE(response.tables.empty());
  for (const std::string& name : response.table_names) {
    EXPECT_NE(name, req.exclude_name);
  }
}

TEST_F(ClusterEngineTest, QueryServiceClusterCacheKeyTracksIngest) {
  ClusterEngine cluster(lake(), ClusterOptions(2));
  serve::QueryService service(&cluster, serve::QueryService::Options{});

  serve::QueryRequest req;
  req.kind = serve::QueryKind::kKeyword;
  req.keyword = lake_->topic_of[1];
  req.k = FullK();
  ASSERT_TRUE(service.Execute(req).status.ok());
  EXPECT_TRUE(service.Execute(req).cache_hit);

  // An ingest bumps the cluster version; the stale entry is unreachable.
  Table derived = lake().table(3);
  derived.set_name("cache_invalidation_probe");
  ingest::LiveEngine::Batch batch;
  batch.adds.push_back(std::move(derived));
  ASSERT_TRUE(cluster.ApplyBatch(std::move(batch)).adds[0].ok());
  const serve::QueryResponse fresh = service.Execute(req);
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_FALSE(fresh.cache_hit);
}

TEST_F(ClusterEngineTest, ClusterMetricsAccumulate) {
  serve::MetricsRegistry metrics;
  ClusterEngine::Options opts = ClusterOptions(2);
  opts.metrics = &metrics;
  ClusterEngine cluster(lake(), opts);

  ASSERT_TRUE(cluster.Keyword(lake_->topic_of[0], 5).status.ok());
  cluster.Health();  // refreshes the labeled gauges

  const serve::MetricsRegistry::Snapshot snap = metrics.Snap();
  uint64_t total = 0;
  uint64_t per_shard = 0;
  uint64_t tables_gauge_sum = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "cluster.queries") total = value;
    if (name.rfind("cluster.shard.queries{", 0) == 0) per_shard += value;
  }
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind("cluster.shard.tables{", 0) == 0) {
      tables_gauge_sum += value;
    }
  }
  EXPECT_EQ(total, 1u);
  EXPECT_EQ(per_shard, 2u);  // one scatter touches both shards
  EXPECT_EQ(tables_gauge_sum, lake().num_tables());
}

// --------------------------------------------- serving modes, differential

/// One (kind, method) pair a QueryService serves. `cluster` marks the
/// pairs the *MatchesSingleEngine* tests above prove partition-independent.
struct ServedPair {
  serve::QueryKind kind;
  JoinMethod join = JoinMethod::kJosie;
  UnionMethod union_method = UnionMethod::kTus;
  bool cluster = false;
};

std::vector<ServedPair> EveryServedPair() {
  std::vector<ServedPair> pairs = {
      {serve::QueryKind::kKeyword, JoinMethod::kJosie, UnionMethod::kTus, true},
      {serve::QueryKind::kCorrelated, JoinMethod::kJosie, UnionMethod::kTus,
       true}};
  for (JoinMethod m :
       {JoinMethod::kExactJaccard, JoinMethod::kExactContainment,
        JoinMethod::kLshEnsemble, JoinMethod::kJosie, JoinMethod::kPexeso,
        JoinMethod::kApprox}) {
    pairs.push_back({serve::QueryKind::kJoin, m, UnionMethod::kTus,
                     m == JoinMethod::kJosie ||
                         m == JoinMethod::kExactContainment});
  }
  for (UnionMethod m : {UnionMethod::kTus, UnionMethod::kSantos,
                        UnionMethod::kStarmie, UnionMethod::kD3l}) {
    pairs.push_back({serve::QueryKind::kUnion, JoinMethod::kJosie, m,
                     m == UnionMethod::kTus || m == UnionMethod::kStarmie});
  }
  return pairs;
}

TEST_F(ClusterEngineTest, ServingModesHideRemovedTablesAndAgreeAfterCompact) {
  // Every modality, so frozen and live cover every (kind, method) pair.
  DiscoveryEngine::Options every;
  every.synthesize_kb = false;
  every.train_annotator = false;
  ingest::LiveEngine::Options live_options;
  live_options.base_options = every;
  live_options.kb = &lake_->kb;

  // `visible` is the oracle's lake: name -> content, in sorted-name order.
  std::map<std::string, Table> visible;
  auto base = std::make_shared<DataLakeCatalog>();
  for (TableId id : lake().AllTables()) {
    ASSERT_TRUE(base->AddTable(lake().table(id)).ok());
    visible.emplace(lake().table(id).name(), lake().table(id));
  }
  ingest::LiveEngine live(base, live_options);
  ClusterEngine::Options cluster_options = ClusterOptions(2);
  cluster_options.engine = live_options;
  ClusterEngine cluster(lake(), cluster_options);
  const size_t k = lake().num_columns() * 2 + 8;

  auto request = [k](const ServedPair& pair, const Table& table) {
    serve::QueryRequest req;
    req.kind = pair.kind;
    req.join_method = pair.join;
    req.union_method = pair.union_method;
    req.k = k;
    req.bypass_cache = true;
    req.require_exact_method = true;
    switch (pair.kind) {
      case serve::QueryKind::kKeyword:
        for (const Column& c : table.columns()) req.keyword += c.name() + " ";
        break;
      case serve::QueryKind::kJoin:
        req.values = table.column(0).DistinctStrings();
        break;
      case serve::QueryKind::kUnion:
        req.union_table = &table;
        break;
      case serve::QueryKind::kCorrelated:
        CorrelatedQuery(table, &req.values, &req.numeric_values);
        break;
    }
    return req;
  };
  auto servable = [](const serve::QueryRequest& req) {
    return req.kind == serve::QueryKind::kKeyword ||
           req.kind == serve::QueryKind::kUnion || !req.values.empty();
  };
  // A response as (name, column, score) hits; `name_of` resolves ids when
  // the response carries no names (single-engine modes).
  auto named = [](const serve::QueryResponse& r,
                  const std::function<std::string(TableId)>& name_of) {
    std::vector<NamedHit> hits;
    for (size_t i = 0; i < r.tables.size(); ++i) {
      hits.push_back({r.table_names.empty() ? name_of(r.tables[i].table_id)
                                            : r.table_names[i],
                      0, r.tables[i].score});
    }
    for (size_t i = 0; i < r.columns.size(); ++i) {
      const ColumnRef& ref = r.columns[i].column;
      hits.push_back({r.table_names.empty() ? name_of(ref.table_id)
                                            : r.table_names[i],
                      ref.column_index, r.columns[i].score});
    }
    SortCanonical(&hits);
    return hits;
  };
  // Live ids resolve against the generation's catalogs directly, so a
  // tombstoned base hit shows up under its (removed) name.
  auto live_names = [&live]() {
    std::shared_ptr<const ingest::Generation> gen = live.Acquire();
    return [gen](TableId id) {
      return gen->IsDeltaId(id)
                 ? gen->delta()
                       .catalog->table(static_cast<TableId>(
                           id - gen->base_table_count()))
                       .name()
                 : gen->base_catalog().table(id).name();
    };
  };

  // The first batch removes a base table its own correlated query finds,
  // so the removal check below reaches correlated search.
  std::vector<std::string> self_correlated;
  const ServedPair correlated = EveryServedPair()[1];
  for (const auto& [name, table] : visible) {
    const serve::QueryRequest req = request(correlated, table);
    if (!servable(req)) continue;
    const auto hits =
        live.Acquire()->base().Correlated(req.values, req.numeric_values, k);
    ASSERT_TRUE(hits.ok()) << hits.status();
    for (const ColumnResult& r : *hits) {
      if (lake().table(r.column.table_id).name() == name) {
        self_correlated.push_back(name);
        break;
      }
    }
  }
  ASSERT_FALSE(self_correlated.empty());

  // Seeded add/remove batches, applied to both the live engine and the
  // cluster: each removes one visible table and adds two row-slices of
  // lake tables under new names.
  Rng rng(7);
  std::map<std::string, Table> removed;
  for (int b = 0; b < 4; ++b) {
    std::string victim;
    if (b == 0) {
      victim = self_correlated[rng.NextBounded(self_correlated.size())];
    } else {
      auto it = visible.begin();
      std::advance(it, rng.NextBounded(visible.size()));
      victim = it->first;
    }
    ingest::LiveEngine::Batch batch;
    batch.removes.push_back(victim);
    for (int a = 0; a < 2; ++a) {
      const Table& origin = lake().table(
          static_cast<TableId>(rng.NextBounded(lake().num_tables())));
      const size_t rows = origin.num_rows() / 2 +
                          rng.NextBounded(origin.num_rows() / 2 + 1);
      Result<Table> slice = origin.Slice(0, rows);
      ASSERT_TRUE(slice.ok()) << slice.status();
      slice->set_name("ingest_" + std::to_string(b) + "_" + std::to_string(a));
      batch.adds.push_back(*slice);
    }
    for (const ingest::LiveEngine::BatchOutcome& outcome :
         {live.ApplyBatch(batch), cluster.ApplyBatch(batch)}) {
      ASSERT_TRUE(outcome.published);
      for (const Status& st : outcome.removes) ASSERT_TRUE(st.ok()) << st;
      for (const auto& id : outcome.adds) ASSERT_TRUE(id.ok()) << id.status();
    }
    removed.insert(visible.extract(victim));
    for (Table& t : batch.adds) visible.emplace(t.name(), std::move(t));
  }

  // Before compaction: no mode returns a removed table, for any pair.
  {
    serve::QueryService live_service(&live, serve::QueryService::Options{});
    serve::QueryService cluster_service(&cluster,
                                        serve::QueryService::Options{});
    const auto live_name = live_names();
    for (const ServedPair& pair : EveryServedPair()) {
      for (const auto& [name, table] : removed) {
        const serve::QueryRequest req = request(pair, table);
        if (!servable(req)) continue;
        const std::string context = serve::QueryService::ModalityName(req) +
                                    " query from removed " + name;
        const serve::QueryResponse from_live = live_service.Execute(req);
        ASSERT_TRUE(from_live.status.ok())
            << context << ": " << from_live.status;
        for (const NamedHit& h : named(from_live, live_name)) {
          EXPECT_EQ(removed.count(h.name), 0u) << "live " << context;
        }
        const serve::QueryResponse from_cluster = cluster_service.Execute(req);
        ASSERT_TRUE(from_cluster.status.ok())
            << context << ": " << from_cluster.status;
        for (const NamedHit& h : named(from_cluster, nullptr)) {
          EXPECT_EQ(removed.count(h.name), 0u) << "cluster " << context;
        }
      }
    }
  }

  // After compaction: frozen, live and cluster services answer exactly as
  // a fresh engine over the visible tables in sorted-name order.
  ASSERT_TRUE(live.Compact().ok());
  ASSERT_TRUE(cluster.CompactAll().ok());
  DataLakeCatalog fresh_catalog;
  for (const auto& [name, table] : visible) {
    ASSERT_TRUE(fresh_catalog.AddTable(table).ok());
  }
  const DiscoveryEngine fresh(&fresh_catalog, &lake_->kb, every);
  serve::QueryService frozen_service(&fresh, serve::QueryService::Options{});
  serve::QueryService live_service(&live, serve::QueryService::Options{});
  serve::QueryService cluster_service(&cluster,
                                      serve::QueryService::Options{});
  const auto fresh_name = [&fresh_catalog](TableId id) {
    return fresh_catalog.table(id).name();
  };
  const auto live_name = live_names();
  std::vector<const Table*> sources;
  for (const auto& [name, table] : visible) sources.push_back(&table);
  for (const auto& [name, table] : removed) sources.push_back(&table);
  for (const ServedPair& pair : EveryServedPair()) {
    for (const Table* table : sources) {
      const serve::QueryRequest req = request(pair, *table);
      if (!servable(req)) continue;
      const std::string context =
          serve::QueryService::ModalityName(req) + " query from " +
          table->name();
      // The reference: the fresh engine called directly.
      serve::QueryResponse direct;
      switch (pair.kind) {
        case serve::QueryKind::kKeyword:
          direct.tables = fresh.Keyword(req.keyword, k);
          break;
        case serve::QueryKind::kJoin: {
          auto r = fresh.Joinable(req.values, pair.join, k);
          ASSERT_TRUE(r.ok()) << context << ": " << r.status();
          direct.columns = *std::move(r);
          break;
        }
        case serve::QueryKind::kUnion: {
          auto r = fresh.Unionable(*table, pair.union_method, k);
          ASSERT_TRUE(r.ok()) << context << ": " << r.status();
          direct.tables = *std::move(r);
          break;
        }
        case serve::QueryKind::kCorrelated: {
          auto r = fresh.Correlated(req.values, req.numeric_values, k);
          ASSERT_TRUE(r.ok()) << context << ": " << r.status();
          direct.columns = *std::move(r);
          break;
        }
      }
      const std::vector<NamedHit> expected = named(direct, fresh_name);

      const serve::QueryResponse from_frozen = frozen_service.Execute(req);
      ASSERT_TRUE(from_frozen.status.ok()) << context << ": "
                                           << from_frozen.status;
      ExpectSameRanking(expected, named(from_frozen, fresh_name),
                        "frozen " + context);
      const serve::QueryResponse from_live = live_service.Execute(req);
      ASSERT_TRUE(from_live.status.ok()) << context << ": "
                                         << from_live.status;
      ExpectSameRanking(expected, named(from_live, live_name),
                        "live " + context);
      if (!pair.cluster) continue;
      const serve::QueryResponse from_cluster = cluster_service.Execute(req);
      ASSERT_TRUE(from_cluster.status.ok())
          << context << ": " << from_cluster.status;
      ExpectSameRanking(expected, named(from_cluster, nullptr),
                        "cluster " + context);
    }
  }
}

}  // namespace
}  // namespace lake::cluster
