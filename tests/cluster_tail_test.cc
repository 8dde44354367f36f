#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_engine.h"
#include "cluster/replica_set.h"
#include "cluster/retry_budget.h"
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

/// Tail-tolerance suite: hedged reads (first response wins, loser
/// cancelled, results bit-identical), the shared retry/hedge budget
/// (duplicated work is capped; exhausted = degrade like today), and
/// latency-based outlier ejection (eject -> probe -> re-admit, with the
/// last-healthy-replica floor).
class ClusterTailTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions opts;
    opts.seed = 23;
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
    std::sort(out.begin(), out.end(),
              [](const NamedHit& a, const NamedHit& b) {
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

  /// Persistently slow replica: every hit of the failpoint stalls.
  static void ArmSlowReplica(uint32_t shard, size_t replica, uint64_t ms) {
    FaultSpec spec;
    spec.kind = FaultSpec::Kind::kDelay;
    spec.arg = ms;
    spec.max_fires = 0;  // unlimited
    FailpointRegistry::Instance().Arm(
        "cluster.exec." + std::to_string(shard) + "." +
            std::to_string(replica),
        spec);
  }

  static GeneratedLake* lake_;
};

GeneratedLake* ClusterTailTest::lake_ = nullptr;

// --- Hedged reads ---------------------------------------------------------

TEST_F(ClusterTailTest, HedgeWinsAgainstPersistentlySlowReplica) {
  ClusterEngine::Options opts = ClusterOptions(2, /*replicas=*/2);
  ClusterEngine baseline(lake(), opts);  // no hedging
  const std::string& topic = lake_->topic_of[0];
  const TableQueryResponse expected = baseline.Keyword(topic, FullK());
  ASSERT_TRUE(expected.status.ok()) << expected.status;
  ASSERT_FALSE(expected.hits.empty());

  opts.tail.enable_hedging = true;
  opts.tail.hedge_max_delay = milliseconds(5);
  // Keep the delay pinned at hedge_max_delay (no p95-derived shortcut) so
  // the test's timing is deterministic.
  opts.tail.hedge_min_samples = 1 << 20;
  ClusterEngine cluster(lake(), opts);
  ArmSlowReplica(0, 0, /*ms=*/60);

  size_t hedged_queries = 0;
  for (int i = 0; i < 6; ++i) {
    const TableQueryResponse got = cluster.Keyword(topic, FullK());
    ASSERT_TRUE(got.status.ok()) << got.status;
    EXPECT_FALSE(got.degraded);
    // Hedged answers are bit-identical to the unhedged baseline: same
    // generation-pinned read over content-equal replicas.
    ExpectSameHits(Canon(expected.hits), Canon(got.hits));
    for (const ShardTrace& t : got.traces) {
      if (t.hedged) ++hedged_queries;
      // A hedge is not a failover: the retry loop never ran.
      EXPECT_LE(t.attempts, 1u);
    }
  }
  // Round-robin lands the slow replica as primary about half the time;
  // each such sub-query must have hedged and the sibling must have won.
  const ClusterEngine::TailStats stats = cluster.tail_stats();
  EXPECT_GT(hedged_queries, 0u);
  EXPECT_GT(stats.hedges_dispatched, 0u);
  EXPECT_GT(stats.hedges_won, 0u);
  EXPECT_LE(stats.hedges_won, stats.hedges_dispatched);
}

TEST_F(ClusterTailTest, NoHedgeWhenDeadlineBudgetBelowHedgeDelay) {
  ClusterEngine::Options opts = ClusterOptions(1, /*replicas=*/2);
  opts.tail.enable_hedging = true;
  opts.tail.hedge_max_delay = milliseconds(50);
  opts.tail.hedge_min_samples = 1 << 20;  // delay stays at hedge_max_delay
  opts.shard_deadline = milliseconds(30);  // below the hedge delay
  ClusterEngine cluster(lake(), opts);
  // Both replicas slow enough that a hedge WOULD fire if it were allowed.
  ArmSlowReplica(0, 0, /*ms=*/100);
  ArmSlowReplica(0, 1, /*ms=*/100);

  const TableQueryResponse got = cluster.Keyword(lake_->topic_of[0], FullK());
  // The shard blows its 30ms budget either way; the invariant under test
  // is that no duplicate work was dispatched with the budget already
  // too small for the hedge delay.
  EXPECT_EQ(cluster.tail_stats().hedges_dispatched, 0u);
  EXPECT_TRUE(got.degraded || !got.status.ok());
}

TEST_F(ClusterTailTest, MutationsAreNeverHedged) {
  ClusterEngine::Options opts = ClusterOptions(2, /*replicas=*/2);
  opts.tail.enable_hedging = true;
  opts.tail.hedge_max_delay = milliseconds(1);
  ClusterEngine cluster(lake(), opts);
  // Slow apply path on one replica: if mutations could hedge, this is
  // exactly the shape that would trigger it.
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kDelay;
  spec.arg = 20;
  spec.max_fires = 0;
  FailpointRegistry::Instance().Arm("cluster.apply.0.0", spec);

  ingest::LiveEngine::Batch batch;
  Table derived = lake().table(0);
  derived.set_name("tail_mutation_probe");
  batch.adds.push_back(std::move(derived));
  const auto outcome = cluster.ApplyBatch(std::move(batch));
  ASSERT_EQ(outcome.adds.size(), 1u);
  EXPECT_TRUE(outcome.adds[0].ok());

  // The write path never touched the hedge/budget machinery.
  const ClusterEngine::TailStats stats = cluster.tail_stats();
  EXPECT_EQ(stats.hedges_dispatched, 0u);
  EXPECT_EQ(stats.budget_requests, 0u);
  EXPECT_EQ(stats.budget_acquired, 0u);
}

// --- Retry/hedge budget ---------------------------------------------------

TEST_F(ClusterTailTest, ExhaustedBudgetDegradesLikeAnExhaustedFailover) {
  // Zero budget: the failover loop's extra attempts are denied, so an
  // erroring replica degrades the shard exactly as max_attempts=1 would.
  ClusterEngine::Options opts = ClusterOptions(1, /*replicas=*/2);
  opts.max_failover_attempts = 2;
  opts.tail.budget_ratio = 0;
  opts.tail.budget_min_tokens = 0;
  ClusterEngine cluster(lake(), opts);

  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kError;
  spec.max_fires = 0;
  FailpointRegistry::Instance().Arm("cluster.exec.0.0", spec);
  FailpointRegistry::Instance().Arm("cluster.exec.0.1", spec);

  const TableQueryResponse got = cluster.Keyword(lake_->topic_of[0], FullK());
  EXPECT_FALSE(got.status.ok());
  ASSERT_EQ(got.traces.size(), 1u);
  EXPECT_EQ(got.traces[0].attempts, 1u);  // retry denied, not attempted
  const ClusterEngine::TailStats stats = cluster.tail_stats();
  EXPECT_GT(stats.budget_denied, 0u);
  EXPECT_EQ(stats.budget_acquired, 0u);
}

TEST_F(ClusterTailTest, DefaultBudgetStillAllowsFailover) {
  ClusterEngine::Options opts = ClusterOptions(1, /*replicas=*/2);
  opts.max_failover_attempts = 3;
  ClusterEngine cluster(lake(), opts);

  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kError;
  spec.max_fires = 1;
  FailpointRegistry::Instance().Arm("cluster.exec.0.0", spec);
  FailpointRegistry::Instance().Arm("cluster.exec.0.1", spec);

  // Both replicas error exactly once, so the first two attempts fail and
  // the third succeeds; the burst floor (min_tokens) funds both retries.
  const TableQueryResponse got = cluster.Keyword(lake_->topic_of[0], FullK());
  ASSERT_TRUE(got.status.ok()) << got.status;
  ASSERT_EQ(got.traces.size(), 1u);
  EXPECT_EQ(got.traces[0].attempts, 3u);
  EXPECT_EQ(cluster.tail_stats().budget_acquired, 2u);
}

TEST(RetryBudgetTest, RatioPlusFloorBoundsExtras) {
  RetryBudget::Options opts;
  opts.ratio = 0.1;
  opts.min_tokens = 2;
  opts.window_slices = 4;
  opts.slice_width = milliseconds(1000);
  RetryBudget budget(opts);
  const auto now = RetryBudget::Clock::now();
  for (int i = 0; i < 100; ++i) budget.RecordRequest(now);
  // Cap inside one window: 0.1 * 100 + 2 = 12 extras.
  uint64_t granted = 0;
  for (int i = 0; i < 50; ++i) {
    if (budget.TryAcquire(now)) ++granted;
  }
  EXPECT_EQ(granted, 12u);
  EXPECT_EQ(budget.denied(), 38u);
  // A new window far in the future: old volume AND old spend rolled off,
  // only the floor remains.
  const auto later = now + milliseconds(1000 * 10);
  granted = 0;
  for (int i = 0; i < 50; ++i) {
    if (budget.TryAcquire(later)) ++granted;
  }
  EXPECT_EQ(granted, 2u);
}

// --- Latency-based outlier ejection --------------------------------------

class ReplicaSetTailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_shared<DataLakeCatalog>();
    Table t("tail_probe");
    t.AddColumn(Column("c", DataType::kString,
                       {Value("a"), Value("b"), Value("c")}));
    catalog_->AddTable(std::move(t));
  }

  static ReplicaSet::Options SetOptions(size_t replicas) {
    ReplicaSet::Options opts;
    opts.num_replicas = replicas;
    opts.engine.base_options = BaseOptions();
    opts.tail.eject_multiple = 3.0;
    opts.tail.eject_quantile = 0.95;
    opts.tail.eject_min_samples = 10;
    opts.tail.eject_base = milliseconds(50);
    opts.tail.eject_max = milliseconds(200);
    opts.tail.eject_probes = 3;
    return opts;
  }

  /// Feeds `n` successful outcomes of `us` microseconds to one replica.
  static void Feed(ReplicaSet& rs, size_t replica, int n, double us,
                   ReplicaSet::Clock::time_point now) {
    for (int i = 0; i < n; ++i) rs.RecordOutcome(replica, true, now, us);
  }

  std::shared_ptr<DataLakeCatalog> catalog_;
};

TEST_F(ReplicaSetTailTest, SlowOutlierIsEjectedAndPickRoutesAround) {
  ReplicaSet rs(0, catalog_, SetOptions(3));
  const auto now = ReplicaSet::Clock::now();
  Feed(rs, 1, 20, 100.0, now);
  Feed(rs, 2, 20, 100.0, now);
  EXPECT_EQ(rs.num_ejected(), 0u);
  // Replica 0 tracks ~30x its peers' median: ejected at the verdict.
  Feed(rs, 0, 20, 3000.0, now);
  EXPECT_TRUE(rs.slow_ejected(0));
  EXPECT_EQ(rs.slow_ejections(0), 1u);
  EXPECT_EQ(rs.num_ejected(), 1u);

  // Pick skips the ejected replica while siblings are available.
  for (int i = 0; i < 10; ++i) {
    ReplicaSet::Route route;
    ASSERT_TRUE(rs.Pick(now, SIZE_MAX, &route));
    EXPECT_NE(route.replica, 0u);
  }
}

TEST_F(ReplicaSetTailTest, EjectedReplicaIsProbedAndReadmittedWhenFast) {
  ReplicaSet rs(0, catalog_, SetOptions(3));
  const auto now = ReplicaSet::Clock::now();
  Feed(rs, 1, 20, 100.0, now);
  Feed(rs, 2, 20, 100.0, now);
  Feed(rs, 0, 20, 3000.0, now);
  ASSERT_TRUE(rs.slow_ejected(0));

  // After the ejection backoff, the replica earns bounded probes; fast
  // probe responses re-admit it (its window was reset on eject, so the
  // verdict judges probe samples, not the stale slowness).
  const auto probe_time = now + milliseconds(60);  // past eject_base=50ms
  size_t probes_of_zero = 0;
  while (!(!rs.slow_ejected(0))) {
    ReplicaSet::Route route;
    ASSERT_TRUE(rs.Pick(probe_time, SIZE_MAX, &route));
    if (route.replica == 0) {
      ++probes_of_zero;
      rs.RecordOutcome(0, true, probe_time, 120.0);
    } else {
      rs.RecordOutcome(route.replica, true, probe_time, 100.0);
    }
    ASSERT_LT(probes_of_zero, 100u) << "replica 0 never re-admitted";
  }
  EXPECT_EQ(probes_of_zero, 3u);  // exactly eject_probes probes needed
  EXPECT_FALSE(rs.slow_ejected(0));
  EXPECT_EQ(rs.num_ejected(), 0u);
}

TEST_F(ReplicaSetTailTest, StillSlowProbesReEjectWithLongerBackoff) {
  ReplicaSet rs(0, catalog_, SetOptions(3));
  const auto now = ReplicaSet::Clock::now();
  Feed(rs, 1, 20, 100.0, now);
  Feed(rs, 2, 20, 100.0, now);
  Feed(rs, 0, 20, 3000.0, now);
  ASSERT_TRUE(rs.slow_ejected(0));

  // Probes still slow: the verdict re-ejects with a doubled backoff.
  const auto probe_time = now + milliseconds(60);
  // Keep the peers' windows warm at probe time.
  Feed(rs, 1, 20, 100.0, probe_time);
  Feed(rs, 2, 20, 100.0, probe_time);
  size_t probes = 0;
  while (rs.slow_ejections(0) < 2) {
    ReplicaSet::Route route;
    ASSERT_TRUE(rs.Pick(probe_time, SIZE_MAX, &route));
    if (route.replica == 0) {
      ++probes;
      rs.RecordOutcome(0, true, probe_time, 3000.0);
    } else {
      rs.RecordOutcome(route.replica, true, probe_time, 100.0);
    }
    ASSERT_LT(probes, 100u) << "replica 0 never re-ejected";
  }
  EXPECT_TRUE(rs.slow_ejected(0));
  // Doubled backoff: not yet probing again right after eject_base.
  const auto too_soon = probe_time + milliseconds(60);
  for (int i = 0; i < 6; ++i) {
    ReplicaSet::Route route;
    ASSERT_TRUE(rs.Pick(too_soon, SIZE_MAX, &route));
    EXPECT_NE(route.replica, 0u);
  }
}

TEST_F(ReplicaSetTailTest, LastHealthyReplicaIsNeverEjected) {
  ReplicaSet rs(0, catalog_, SetOptions(2));
  const auto now = ReplicaSet::Clock::now();
  // Replica 1 is dead: replica 0 is the last healthy one, and no peer
  // median exists, so no amount of slowness may eject it.
  rs.Kill(1);
  Feed(rs, 0, 50, 50000.0, now);
  EXPECT_FALSE(rs.slow_ejected(0));
  ReplicaSet::Route route;
  ASSERT_TRUE(rs.Pick(now, SIZE_MAX, &route));
  EXPECT_EQ(route.replica, 0u);
}

TEST_F(ReplicaSetTailTest, PickFallsBackToEjectedReplicaAsLastResort) {
  ReplicaSet rs(0, catalog_, SetOptions(2));
  const auto now = ReplicaSet::Clock::now();
  Feed(rs, 1, 20, 100.0, now);
  Feed(rs, 0, 20, 3000.0, now);
  ASSERT_TRUE(rs.slow_ejected(0));

  // The fast sibling dies: ejection must not make the shard unavailable —
  // the second Pick pass admits the ejected replica anyway.
  rs.Kill(1);
  ReplicaSet::Route route;
  ASSERT_TRUE(rs.Pick(now, SIZE_MAX, &route));
  EXPECT_EQ(route.replica, 0u);
}

TEST_F(ReplicaSetTailTest, LastResortSamplesDoNotCountTowardReadmission) {
  ReplicaSet rs(0, catalog_, SetOptions(2));
  const auto now = ReplicaSet::Clock::now();
  Feed(rs, 1, 20, 100.0, now);
  Feed(rs, 0, 20, 3000.0, now);
  ASSERT_TRUE(rs.slow_ejected(0));

  // While ejected, replica 0 serves as the last resort with fast answers.
  // They are neither probes nor probe-period samples.
  rs.Kill(1);
  const auto ejected_time = now + milliseconds(20);  // before eject_base
  for (int i = 0; i < 10; ++i) {
    ReplicaSet::Route route;
    ASSERT_TRUE(rs.Pick(ejected_time, SIZE_MAX, &route));
    ASSERT_EQ(route.replica, 0u);
    rs.RecordOutcome(0, true, ejected_time, 100.0);
  }
  EXPECT_TRUE(rs.slow_ejected(0));
  rs.Revive(1);

  // After the backoff, re-admission still takes exactly eject_probes
  // probes.
  const auto probe_time = now + milliseconds(60);
  size_t probes_of_zero = 0;
  while (rs.slow_ejected(0)) {
    ReplicaSet::Route route;
    ASSERT_TRUE(rs.Pick(probe_time, SIZE_MAX, &route));
    if (route.replica == 0) {
      ++probes_of_zero;
      rs.RecordOutcome(0, true, probe_time, 120.0);
    } else {
      rs.RecordOutcome(route.replica, true, probe_time, 100.0);
    }
    ASSERT_LT(probes_of_zero, 100u) << "replica 0 never re-admitted";
  }
  EXPECT_EQ(probes_of_zero, 3u);
  EXPECT_EQ(rs.slow_ejections(0), 1u);
}

TEST_F(ReplicaSetTailTest, RepeatedReEjectionsCapTheBackoffAtEjectMax) {
  ReplicaSet rs(0, catalog_, SetOptions(3));
  const auto now = ReplicaSet::Clock::now();
  Feed(rs, 1, 20, 100.0, now);
  Feed(rs, 2, 20, 100.0, now);
  Feed(rs, 0, 20, 3000.0, now);
  ASSERT_EQ(rs.slow_ejections(0), 1u);

  // Probes replica 0 at `t` with slow answers until it is re-ejected.
  auto re_eject = [&](ReplicaSet::Clock::time_point t) {
    const uint64_t before = rs.slow_ejections(0);
    size_t probes = 0;
    while (rs.slow_ejections(0) == before) {
      ReplicaSet::Route route;
      ASSERT_TRUE(rs.Pick(t, SIZE_MAX, &route));
      if (route.replica == 0) {
        ++probes;
        rs.RecordOutcome(0, true, t, 3000.0);
      } else {
        rs.RecordOutcome(route.replica, true, t, 100.0);
      }
      ASSERT_LT(probes, 100u) << "replica 0 never re-ejected";
    }
  };
  // eject_base 50ms doubles to 100ms, then 200ms = eject_max.
  const auto t1 = now + milliseconds(60);
  re_eject(t1);
  const auto t2 = t1 + milliseconds(110);
  re_eject(t2);
  const auto t3 = t2 + milliseconds(210);
  re_eject(t3);
  ASSERT_EQ(rs.slow_ejections(0), 4u);

  // The fourth ejection lasts eject_max (200ms), not the doubled 400ms.
  auto probed_at = [&](ReplicaSet::Clock::time_point t) {
    bool probed = false;
    for (int i = 0; i < 6; ++i) {
      ReplicaSet::Route route;
      EXPECT_TRUE(rs.Pick(t, SIZE_MAX, &route));
      if (route.replica == 0) probed = true;
    }
    return probed;
  };
  EXPECT_FALSE(probed_at(t3 + milliseconds(190)));
  EXPECT_TRUE(probed_at(t3 + milliseconds(210)));
}

TEST_F(ClusterTailTest, HealthExportsLatencyAndEjectionState) {
  ClusterEngine::Options opts = ClusterOptions(1, /*replicas=*/2);
  opts.tail.replica.eject_multiple = 3.0;
  opts.tail.replica.eject_min_samples = 8;
  serve::MetricsRegistry metrics;
  opts.metrics = &metrics;
  ClusterEngine cluster(lake(), opts);
  serve::QueryService service(&cluster, serve::QueryService::Options{});

  ArmSlowReplica(0, 0, /*ms=*/30);
  const std::string& topic = lake_->topic_of[0];
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(cluster.Keyword(topic, FullK()).status.ok());
  }

  const auto health = cluster.Health();
  ASSERT_EQ(health.size(), 1u);
  ASSERT_EQ(health[0].replicas.size(), 2u);
  bool any_samples = false;
  for (const auto& rh : health[0].replicas) {
    if (rh.latency_samples > 0) any_samples = true;
  }
  EXPECT_TRUE(any_samples);
  // The persistently slow replica's tracked p95 dwarfs its sibling's and
  // the ejection state machine has taken it out of the first-pass pick.
  EXPECT_EQ(health[0].replicas_ejected, 1u);
  EXPECT_TRUE(health[0].replicas[0].slow_ejected);
  EXPECT_GT(health[0].replicas[0].latency_p95_us,
            health[0].replicas[1].latency_p95_us);
  // Ejection does not remove capacity: the replica still counts as
  // serving (it remains the last-resort fallback).
  EXPECT_EQ(health[0].replicas_serving, 2u);

  // The service health surface carries the rollup.
  const auto snapshot = service.Health();
  EXPECT_EQ(snapshot.ejected_replicas, 1u);
}

TEST_F(ClusterTailTest, NonFailureErrorFreesTheReplicaProbeSlot) {
  ClusterEngine::Options opts = ClusterOptions(1, /*replicas=*/1);
  opts.breaker.min_volume = 1;  // one failed query trips the breaker
  opts.breaker.open_base = milliseconds(10);
  opts.max_failover_attempts = 1;
  ClusterEngine cluster(lake(), opts);

  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kError;
  spec.max_fires = 1;
  FailpointRegistry::Instance().Arm("cluster.exec.0.0", spec);
  ASSERT_FALSE(cluster.Keyword(lake_->topic_of[0], 5).status.ok());
  std::this_thread::sleep_for(milliseconds(30));

  // The probe goes to a request the replica rejects as the caller's own
  // error. That says nothing about the replica: the probe slot must come
  // back, or the replica would stay half-open with no slot forever.
  const ColumnQueryResponse bad = cluster.Joinable(
      {"a", "b"}, static_cast<JoinMethod>(99), 5);
  ASSERT_EQ(bad.status.code(), StatusCode::kInvalidArgument) << bad.status;
  EXPECT_TRUE(cluster.Keyword(lake_->topic_of[0], 5).status.ok());
}

// --- Metastable-failure regression ---------------------------------------

TEST_F(ClusterTailTest, BudgetCapsDuplicatedWorkUnderOverload) {
  // 4x overload (8 client threads against a 2-worker scatter pool) with
  // one persistently slow replica. The regression this guards: without a
  // budget, every slow primary spawns duplicated work, the duplicates
  // queue behind the slowness, and the cluster enters the metastable
  // regime where goodput collapses even after the trigger clears.
  const std::string& topic = lake_->topic_of[0];
  const int kThreads = 8;
  const int kQueriesPerThread = 25;

  auto run = [&](ClusterEngine& cluster) {
    std::atomic<size_t> ok{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&] {
        for (int i = 0; i < kQueriesPerThread; ++i) {
          const TableQueryResponse got = cluster.Keyword(topic, 10);
          if (got.status.ok() && !got.degraded) {
            ok.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
    return ok.load();
  };

  ClusterEngine::Options opts = ClusterOptions(2, /*replicas=*/2);
  opts.num_workers = 2;
  opts.tail.enable_hedging = true;
  opts.tail.hedge_max_delay = milliseconds(5);
  opts.tail.hedge_min_samples = 1 << 20;

  ClusterEngine clean(lake(), opts);
  const size_t clean_ok = run(clean);

  ClusterEngine slow(lake(), opts);
  ArmSlowReplica(0, 0, /*ms=*/25);
  const size_t slow_ok = run(slow);

  // Duplicated work (hedges + funded failovers) stays within the budget:
  // the ratio of the window volume plus the burst floor per live window.
  // Lifetime counters span multiple windows, so allow the floor several
  // times over — an unbudgeted implementation hedges ~50% of sub-queries
  // here and fails this by an order of magnitude.
  const ClusterEngine::TailStats stats = slow.tail_stats();
  EXPECT_GT(stats.budget_requests, 0u);
  EXPECT_LE(stats.hedges_dispatched + stats.budget_acquired -
                std::min(stats.hedges_dispatched, stats.budget_acquired),
            stats.budget_acquired);  // every hedge was budget-funded
  EXPECT_LE(stats.budget_acquired,
            static_cast<uint64_t>(0.1 * static_cast<double>(
                                            stats.budget_requests)) +
                5 * 10);
  // Goodput within 10% of the clean run: the slow replica costs hedged
  // sub-queries a few ms, never correctness or availability.
  EXPECT_GE(static_cast<double>(slow_ok),
            0.9 * static_cast<double>(clean_ok));
}

}  // namespace
}  // namespace lake::cluster
