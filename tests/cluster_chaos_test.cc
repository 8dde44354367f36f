#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_engine.h"
#include "lakegen/generator.h"
#include "serve/query_service.h"
#include "util/failpoint.h"

namespace lake::cluster {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

DiscoveryEngine::Options BaseOptions() {
  DiscoveryEngine::Options eopts;
  eopts.build_pexeso = false;
  eopts.build_mate = false;
  eopts.build_correlated = false;
  eopts.build_santos = false;
  eopts.build_d3l = false;
  eopts.synthesize_kb = false;
  eopts.train_annotator = false;
  return eopts;
}

/// Fault-injection suite for the cluster layer: replica death, erroring
/// replicas (failover), whole-shard death (degraded partial answers),
/// hung shards under a deadline budget, and online rebalancing. Each test
/// owns its cluster — chaos mutates health state.
class ClusterChaosTest : public ::testing::Test {
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
  }

  static void TearDownTestSuite() {
    delete lake_;
    lake_ = nullptr;
  }

  void TearDown() override { FailpointRegistry::Instance().ClearAll(); }

  static const DataLakeCatalog& lake() { return lake_->catalog; }

  static ClusterEngine::Options ClusterOptions(size_t shards,
                                               size_t replicas) {
    ClusterEngine::Options opts;
    opts.num_shards = shards;
    opts.num_replicas = replicas;
    opts.engine.base_options = BaseOptions();
    opts.engine.kb = &lake_->kb;
    return opts;
  }

  static size_t FullK() { return lake().num_tables() + 8; }

  struct NamedHit {
    std::string name;
    double score = 0;
  };

  static std::vector<NamedHit> Canon(const std::vector<TableHit>& hits) {
    std::vector<NamedHit> out;
    for (const TableHit& h : hits) out.push_back({h.table, h.score});
    std::sort(out.begin(), out.end(), [](const NamedHit& a,
                                         const NamedHit& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.name < b.name;
    });
    return out;
  }

  static void ExpectSameHits(const std::vector<NamedHit>& expected,
                             const std::vector<NamedHit>& actual) {
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].name, actual[i].name) << "rank " << i;
      EXPECT_DOUBLE_EQ(expected[i].score, actual[i].score) << "rank " << i;
    }
  }

  static GeneratedLake* lake_;
};

GeneratedLake* ClusterChaosTest::lake_ = nullptr;

TEST_F(ClusterChaosTest, KilledReplicaCostsNothingWithASibling) {
  ClusterEngine cluster(lake(), ClusterOptions(2, /*replicas=*/2));
  const std::string& topic = lake_->topic_of[0];
  const TableQueryResponse healthy = cluster.Keyword(topic, FullK());
  ASSERT_TRUE(healthy.status.ok()) << healthy.status;
  ASSERT_FALSE(healthy.hits.empty());

  // Kill replica 0 of every shard: the read path must route around it
  // with zero result impact — not even a degraded flag.
  for (uint32_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(cluster.KillReplica(s, 0).ok());
  }
  const TableQueryResponse after = cluster.Keyword(topic, FullK());
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_FALSE(after.degraded);
  EXPECT_TRUE(after.missing_shards.empty());
  ExpectSameHits(Canon(healthy.hits), Canon(after.hits));
  for (const ShardTrace& t : after.traces) {
    EXPECT_EQ(t.replica, 1u);  // every shard served from the survivor
  }

  // Revived replicas rejoin the rotation (mutations kept applying while
  // dead, so no resync is needed).
  for (uint32_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(cluster.ReviveReplica(s, 0).ok());
  }
  const auto health = cluster.Health();
  for (const auto& sh : health) EXPECT_EQ(sh.replicas_alive, 2u);
}

TEST_F(ClusterChaosTest, ErroringReplicaFailsOverWithinTheQuery) {
  ClusterEngine::Options opts = ClusterOptions(2, /*replicas=*/2);
  opts.max_failover_attempts = 3;
  ClusterEngine cluster(lake(), opts);
  const std::string& topic = lake_->topic_of[1];
  const TableQueryResponse healthy = cluster.Keyword(topic, FullK());
  ASSERT_TRUE(healthy.status.ok()) << healthy.status;

  // Both replicas of shard 0 error exactly once, so whichever the
  // round-robin picks first fails, its sibling fails the retry, and the
  // third attempt (back on the first replica, fault budget spent)
  // succeeds — all inside one query, with exact results.
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kError;
  spec.max_fires = 1;
  FailpointRegistry::Instance().Arm("cluster.exec.0.0", spec);
  FailpointRegistry::Instance().Arm("cluster.exec.0.1", spec);

  const TableQueryResponse after = cluster.Keyword(topic, FullK());
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_FALSE(after.degraded);
  ExpectSameHits(Canon(healthy.hits), Canon(after.hits));
  size_t failovers = 0;
  for (const ShardTrace& t : after.traces) {
    if (t.shard == 0) {
      EXPECT_EQ(t.attempts, 3u);
      ++failovers;
    } else {
      EXPECT_EQ(t.attempts, 1u);
    }
  }
  EXPECT_EQ(failovers, 1u);
}

TEST_F(ClusterChaosTest, DeadShardDegradesInsteadOfFailing) {
  ClusterEngine cluster(lake(), ClusterOptions(3, /*replicas=*/1));
  const std::string& topic = lake_->topic_of[0];
  const TableQueryResponse healthy = cluster.Keyword(topic, FullK());
  ASSERT_TRUE(healthy.status.ok()) << healthy.status;

  // Pick a shard that actually contributed hits, so its death is visible.
  ASSERT_FALSE(healthy.hits.empty());
  const uint32_t victim = healthy.hits[0].shard;
  ASSERT_TRUE(cluster.KillReplica(victim, 0).ok());

  const TableQueryResponse after = cluster.Keyword(topic, FullK());
  // Partial coverage, never an error: the two surviving shards answer.
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_TRUE(after.degraded);
  ASSERT_EQ(after.missing_shards.size(), 1u);
  EXPECT_EQ(after.missing_shards[0], victim);
  EXPECT_LT(after.hits.size(), healthy.hits.size());
  for (const TableHit& h : after.hits) {
    EXPECT_NE(h.shard, victim);
  }

  // Kill the other shards too: with nobody left the query finally errors.
  for (uint32_t s = 0; s < 3; ++s) {
    if (s != victim) {
      ASSERT_TRUE(cluster.KillReplica(s, 0).ok());
    }
  }
  const TableQueryResponse none = cluster.Keyword(topic, FullK());
  EXPECT_FALSE(none.status.ok());
  EXPECT_TRUE(none.hits.empty());
}

TEST_F(ClusterChaosTest, HungShardIsAbandonedAtItsDeadlineBudget) {
  ClusterEngine::Options opts = ClusterOptions(2, /*replicas=*/1);
  opts.shard_deadline = milliseconds(100);
  opts.max_failover_attempts = 1;
  ClusterEngine cluster(lake(), opts);

  // Shard 0's only replica hangs far past the per-shard budget. The
  // query must come back quickly with the other shard's hits, not hang.
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kDelay;
  spec.arg = 5000;
  spec.max_fires = 1;
  FailpointRegistry::Instance().Arm("cluster.exec.0.0", spec);

  const auto start = steady_clock::now();
  const TableQueryResponse got = cluster.Keyword(lake_->topic_of[0], FullK());
  const auto elapsed = steady_clock::now() - start;

  ASSERT_TRUE(got.status.ok()) << got.status;
  EXPECT_TRUE(got.degraded);
  ASSERT_EQ(got.missing_shards.size(), 1u);
  EXPECT_EQ(got.missing_shards[0], 0u);
  for (const TableHit& h : got.hits) EXPECT_EQ(h.shard, 1u);
  // Budget + grace is well under a second; the injected hang was 5s.
  EXPECT_LT(elapsed, milliseconds(2500));
}

TEST_F(ClusterChaosTest, QueryServiceSurfacesDegradedClusterAnswers) {
  ClusterEngine::Options opts = ClusterOptions(2, /*replicas=*/1);
  ClusterEngine cluster(lake(), opts);
  serve::QueryService service(&cluster, serve::QueryService::Options{});

  ASSERT_TRUE(cluster.KillReplica(0, 0).ok());

  serve::QueryRequest req;
  req.kind = serve::QueryKind::kKeyword;
  req.keyword = lake_->topic_of[0];
  req.k = FullK();
  const serve::QueryResponse response = service.Execute(req);
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_TRUE(response.degraded);
  ASSERT_EQ(response.missing_shards.size(), 1u);
  EXPECT_EQ(response.missing_shards[0], 0u);

  // Degraded partial answers must never be cached: the same query again
  // is a fresh execution, and once the shard revives it sees full
  // coverage immediately.
  EXPECT_FALSE(service.Execute(req).cache_hit);
  ASSERT_TRUE(cluster.ReviveReplica(0, 0).ok());
  const serve::QueryResponse healed = service.Execute(req);
  ASSERT_TRUE(healed.status.ok());
  EXPECT_FALSE(healed.degraded);
  EXPECT_FALSE(healed.cache_hit);

  // Service health reflects the (now healed) shard map.
  const auto health = service.Health();
  ASSERT_EQ(health.shards.size(), 2u);
  EXPECT_FALSE(health.degraded);
}

TEST_F(ClusterChaosTest, ServiceHealthFlagsShardWithNoLiveReplica) {
  ClusterEngine cluster(lake(), ClusterOptions(2, /*replicas=*/1));
  serve::QueryService service(&cluster, serve::QueryService::Options{});
  ASSERT_TRUE(cluster.KillReplica(1, 0).ok());
  const auto health = service.Health();
  EXPECT_TRUE(health.degraded);
  EXPECT_FALSE(health.ok);
}

TEST_F(ClusterChaosTest, AddShardLosesNoTables) {
  ClusterEngine cluster(lake(), ClusterOptions(2, /*replicas=*/1));
  const std::string& topic = lake_->topic_of[0];
  const TableQueryResponse before = cluster.Keyword(topic, FullK());
  ASSERT_TRUE(before.status.ok()) << before.status;

  const Result<ClusterEngine::RebalanceStats> stats = cluster.AddShard();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->shard, 2u);
  EXPECT_EQ(stats->tables_total, lake().num_tables());
  EXPECT_EQ(cluster.num_shards(), 3u);
  EXPECT_EQ(cluster.TotalVisibleTables(), lake().num_tables());

  // Exactly the same tables answer. (Scores are compared as membership,
  // not values: donors tombstone their moved tables but keep them in the
  // base BM25 corpus statistics until compaction — the same bounded IDF
  // drift a single-node remove has.)
  const TableQueryResponse after = cluster.Keyword(topic, FullK());
  ASSERT_TRUE(after.status.ok()) << after.status;
  std::vector<std::string> names_before;
  std::vector<std::string> names_after;
  for (const TableHit& h : before.hits) names_before.push_back(h.table);
  for (const TableHit& h : after.hits) names_after.push_back(h.table);
  std::sort(names_before.begin(), names_before.end());
  std::sort(names_after.begin(), names_after.end());
  EXPECT_EQ(names_before, names_after);
  for (const TableHit& h : after.hits) {
    EXPECT_EQ(h.shard, cluster.OwnerOf(h.table));
  }
}

TEST_F(ClusterChaosTest, RemoveShardRedistributesItsTables) {
  ClusterEngine cluster(lake(), ClusterOptions(3, /*replicas=*/1));
  const std::string& topic = lake_->topic_of[1];
  const TableQueryResponse before = cluster.Keyword(topic, FullK());
  ASSERT_TRUE(before.status.ok()) << before.status;

  const Result<ClusterEngine::RebalanceStats> stats = cluster.RemoveShard(1);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(cluster.num_shards(), 2u);
  EXPECT_EQ(cluster.TotalVisibleTables(), lake().num_tables());

  const TableQueryResponse after = cluster.Keyword(topic, FullK());
  ASSERT_TRUE(after.status.ok()) << after.status;
  ExpectSameHits(Canon(before.hits), Canon(after.hits));
  for (const TableHit& h : after.hits) {
    EXPECT_NE(h.shard, 1u);
  }

  EXPECT_EQ(cluster.RemoveShard(7).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(cluster.RemoveShard(0).ok());
  // The last shard must not be removable — the lake has to live somewhere.
  EXPECT_EQ(cluster.RemoveShard(2).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ClusterChaosTest, RebalanceUnderIngestKeepsEveryTable) {
  ClusterEngine cluster(lake(), ClusterOptions(2, /*replicas=*/1));
  // Interleave ingests and topology changes; the visible set must track
  // exactly (base + surviving adds) with no loss at any step.
  size_t added = 0;
  for (int round = 0; round < 3; ++round) {
    Table derived = lake().table(round);
    derived.set_name("rebalance_probe_" + std::to_string(round));
    ingest::LiveEngine::Batch batch;
    batch.adds.push_back(std::move(derived));
    ASSERT_TRUE(cluster.ApplyBatch(std::move(batch)).adds[0].ok());
    ++added;

    if (round == 0) {
      ASSERT_TRUE(cluster.AddShard().ok());
    } else if (round == 1) {
      ASSERT_TRUE(cluster.RemoveShard(0).ok());
    }
    EXPECT_EQ(cluster.TotalVisibleTables(), lake().num_tables() + added)
        << "round " << round;
  }

  // Every probe is still findable by union search after all the moves.
  const TableQueryResponse got =
      cluster.Unionable(lake().table(0), UnionMethod::kTus, FullK() + 3);
  ASSERT_TRUE(got.status.ok()) << got.status;
  size_t probes = 0;
  for (const TableHit& h : got.hits) {
    if (h.table.rfind("rebalance_probe_", 0) == 0) ++probes;
    EXPECT_EQ(h.shard, cluster.OwnerOf(h.table));
  }
  EXPECT_GT(probes, 0u);
}

}  // namespace
}  // namespace lake::cluster
