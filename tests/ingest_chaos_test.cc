#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/compactor.h"
#include "ingest/live_engine.h"
#include "ingest/pipeline.h"
#include "lakegen/generator.h"
#include "serve/query_service.h"
#include "store/snapshot.h"
#include "table/csv.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace lake::ingest {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lake_ingest_chaos_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

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

/// Smaller lake than ingest_test: every scenario here runs threads against
/// repeated engine builds, so the corpus is the cost multiplier.
class IngestChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions opts;
    opts.seed = 23;
    opts.num_domains = 4;
    opts.num_templates = 2;
    opts.tables_per_template = 3;
    opts.min_rows = 20;
    opts.max_rows = 40;
    lake_ = new GeneratedLake(LakeGenerator(opts).Generate());
    catalog_ = new std::shared_ptr<const DataLakeCatalog>(
        std::make_shared<DataLakeCatalog>(std::move(lake_->catalog)));
    engine_ = new std::shared_ptr<const DiscoveryEngine>(
        std::make_shared<DiscoveryEngine>(catalog_->get(), &lake_->kb,
                                          BaseOptions()));
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete catalog_;
    delete lake_;
    engine_ = nullptr;
    catalog_ = nullptr;
    lake_ = nullptr;
  }

  void TearDown() override { FailpointRegistry::Instance().ClearAll(); }

  static const DataLakeCatalog& base() { return **catalog_; }

  static LiveEngine::Options LiveOptions() {
    LiveEngine::Options opts;
    opts.base_options = BaseOptions();
    opts.kb = &lake_->kb;
    return opts;
  }

  static std::unique_ptr<LiveEngine> MakeLive(LiveEngine::Options opts) {
    return std::make_unique<LiveEngine>(*catalog_, *engine_, std::move(opts));
  }

  static Table Derived(TableId origin, const std::string& name) {
    Table copy = base().table(origin);
    copy.set_name(name);
    return copy;
  }

  static GeneratedLake* lake_;
  static std::shared_ptr<const DataLakeCatalog>* catalog_;
  static std::shared_ptr<const DiscoveryEngine>* engine_;
};

GeneratedLake* IngestChaosTest::lake_ = nullptr;
std::shared_ptr<const DataLakeCatalog>* IngestChaosTest::catalog_ = nullptr;
std::shared_ptr<const DiscoveryEngine>* IngestChaosTest::engine_ = nullptr;

/// Readers run lock-free merged queries nonstop while a writer streams
/// tables through the pipeline and a compactor folds them in. Every
/// acquired generation must be internally consistent: any table id a
/// merged result names must resolve within that same generation.
TEST_F(IngestChaosTest, ConcurrentQueriesDuringIngestAndCompaction) {
  auto live = MakeLive(LiveOptions());
  IngestPipeline::Options popts;
  popts.batch_max_tables = 4;
  popts.batch_max_delay_ms = 1;
  IngestPipeline pipeline(live.get(), popts);
  Compactor::Options copts;
  copts.max_delta_tables = 4;
  copts.poll_interval_ms = 2;
  Compactor compactor(live.get(), copts);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries_ok{0};
  std::atomic<bool> consistent{true};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      const std::string topic = lake_->topic_of[t % lake_->topic_of.size()];
      const std::vector<std::string> values =
          base().table(0).column(0).DistinctStrings();
      while (!stop.load(std::memory_order_relaxed)) {
        auto gen = live->Acquire();
        for (const TableResult& r : MergedKeyword(*gen, topic, 10)) {
          if (!gen->TableName(r.table_id).ok()) {
            consistent.store(false, std::memory_order_relaxed);
          }
        }
        Result<std::vector<ColumnResult>> join =
            MergedJoinable(*gen, values, JoinMethod::kJosie, 10);
        if (join.ok()) {
          for (const ColumnResult& r : join.value()) {
            if (!gen->TableName(r.column.table_id).ok()) {
              consistent.store(false, std::memory_order_relaxed);
            }
          }
        }
        queries_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  constexpr int kTables = 24;
  std::vector<std::future<Result<TableId>>> futures;
  futures.reserve(kTables);
  for (int i = 0; i < kTables; ++i) {
    futures.push_back(pipeline.SubmitTable(
        Derived(static_cast<TableId>(i % base().num_tables()),
                StrFormat("chaos_%03d", i))));
    if (i % 5 == 4) {
      // Interleave removes of previously streamed tables.
      std::future<Status> removed =
          pipeline.SubmitRemove(StrFormat("chaos_%03d", i - 2));
      EXPECT_TRUE(removed.get().ok());
    }
  }
  size_t accepted = 0;
  for (auto& f : futures) {
    if (f.get().ok()) ++accepted;
  }
  pipeline.Flush();
  compactor.TriggerNow();
  // Wait for the triggered compaction to drain the remaining delta.
  for (int i = 0; i < 1000 && live->num_delta_tables() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    compactor.TriggerNow();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  compactor.Stop();

  EXPECT_TRUE(consistent.load());
  EXPECT_GT(queries_ok.load(), 0u);
  EXPECT_EQ(accepted, futures.size());  // queue never overflowed
  EXPECT_GE(live->compactions(), 1u);
  EXPECT_EQ(live->num_delta_tables(), 0u);

  // 24 adds, 4 of them removed again: the final lake holds base + 20.
  auto gen = live->Acquire();
  EXPECT_EQ(gen->visible_table_count(), base().num_tables() + kTables - 4);
  EXPECT_FALSE(gen->has_delta());
}

/// The serving layer under concurrent load while the lake mutates: no
/// served answer may name a table that did not exist in some published
/// generation, and the service must never deadlock against the compactor.
TEST_F(IngestChaosTest, QueryServiceConcurrentWithMutations) {
  auto live = MakeLive(LiveOptions());
  serve::QueryService::Options sopts;
  sopts.num_workers = 3;
  serve::QueryService service(live.get(), sopts);
  Compactor::Options copts;
  copts.max_delta_tables = 3;
  copts.poll_interval_ms = 2;
  Compactor compactor(live.get(), copts);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      serve::QueryRequest req;
      req.kind = serve::QueryKind::kKeyword;
      req.keyword = lake_->topic_of[t % lake_->topic_of.size()];
      req.k = 20;
      while (!stop.load(std::memory_order_relaxed)) {
        serve::QueryResponse resp = service.Execute(req);
        if (resp.status.ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else if (resp.status.code() != StatusCode::kOverloaded) {
          ok.store(false, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int i = 0; i < 12; ++i) {
    Result<TableId> added = live->AddTable(
        Derived(static_cast<TableId>(i % base().num_tables()),
                StrFormat("svc_chaos_%02d", i)));
    EXPECT_TRUE(added.ok()) << added.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (int i = 0; i < 1000 && live->num_delta_tables() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    compactor.TriggerNow();
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  compactor.Stop();

  EXPECT_TRUE(ok.load());
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(live->Acquire()->visible_table_count(),
            base().num_tables() + 12);
}

/// Crash-during-compaction drill: the swap failpoint kills a compaction
/// after the expensive build, the "process" restarts from the last
/// checkpoint, and recovery must land on a consistent generation with the
/// full delta intact — the crash cost the compaction, nothing else.
TEST_F(IngestChaosTest, CompactionCrashThenRecoveryIsConsistent) {
  const std::string dir = TestDir("compact_crash");
  store::SnapshotStore store(dir);
  LiveEngine::Options opts = LiveOptions();
  opts.store = &store;
  auto live = MakeLive(opts);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        live->AddTable(Derived(0, StrFormat("crash_%d", i))).ok());
  }
  ASSERT_TRUE(live->RemoveTable(base().table(1).name()).ok());
  ASSERT_TRUE(live->Checkpoint().ok());

  FailpointRegistry::Instance().Arm("ingest.compact.swap",
                                    FaultSpec{FaultSpec::Kind::kError});
  EXPECT_FALSE(live->Compact().ok());
  live.reset();  // the crash

  LiveEngine::RecoveryReport report;
  Result<std::unique_ptr<LiveEngine>> recovered =
      LiveEngine::Recover(&store, opts, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(report.index_sections_rebuilt, 0u);  // base sections healthy
  EXPECT_EQ(report.deltas_replayed, 3u);
  EXPECT_EQ(report.tombstones_replayed, 1u);
  auto gen = (*recovered)->Acquire();
  EXPECT_EQ(gen->visible_table_count(), base().num_tables() + 3 - 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(gen->FindTable(StrFormat("crash_%d", i)).ok());
  }
  EXPECT_FALSE(gen->FindTable(base().table(1).name()).ok());

  // And the recovered engine can finish what the crash interrupted.
  ASSERT_TRUE((*recovered)->Compact().ok());
  EXPECT_EQ((*recovered)->num_delta_tables(), 0u);
  EXPECT_EQ((*recovered)->num_tombstones(), 0u);
}

/// Crash between compaction swap and the post-compaction checkpoint: the
/// in-memory engine has the new base, the store still has the old
/// generation — recovery serves the pre-compaction state (stale but
/// consistent), and every streamed table is still present via the replayed
/// delta.
TEST_F(IngestChaosTest, PersistCrashAfterCompactionLosesNoTables) {
  const std::string dir = TestDir("persist_crash");
  store::SnapshotStore store(dir);
  LiveEngine::Options opts = LiveOptions();
  opts.store = &store;
  auto live = MakeLive(opts);
  ASSERT_TRUE(live->AddTable(Derived(0, "survivor_a")).ok());
  ASSERT_TRUE(live->AddTable(Derived(1, "survivor_b")).ok());
  ASSERT_TRUE(live->Checkpoint().ok());

  // The compaction itself succeeds; only its follow-up persistence dies.
  FailpointRegistry::Instance().Arm("ingest.delta.persist",
                                    FaultSpec{FaultSpec::Kind::kError});
  Result<LiveEngine::CompactionStats> stats = live->Compact();
  ASSERT_TRUE(stats.ok()) << stats.status();
  live.reset();  // the crash

  LiveEngine::RecoveryReport report;
  Result<std::unique_ptr<LiveEngine>> recovered =
      LiveEngine::Recover(&store, opts, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(report.deltas_replayed, 2u);  // pre-compaction checkpoint
  auto gen = (*recovered)->Acquire();
  EXPECT_TRUE(gen->FindTable("survivor_a").ok());
  EXPECT_TRUE(gen->FindTable("survivor_b").ok());
  EXPECT_EQ(gen->visible_table_count(), base().num_tables() + 2);
}

/// The WAL acceptance drill: N batches acknowledged under per-batch
/// fsync, a checkpoint partway through, then a torn-write kill mid-stream.
/// Recovery must surface EVERY acknowledged batch — the ones covered by
/// the checkpoint from the snapshot, the rest from the log — and must not
/// surface the batch that was never acknowledged.
TEST_F(IngestChaosTest, WalZeroAcknowledgedLossAcrossCrash) {
  const std::string dir = TestDir("wal_zero_loss");
  store::SnapshotStore store(dir);
  LiveEngine::Options opts = LiveOptions();
  opts.store = &store;
  opts.enable_wal = true;
  opts.wal_options.sync = store::WalWriter::SyncPolicy::kEveryAppend;
  auto live = MakeLive(opts);

  constexpr int kBatches = 8;
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(live->AddTable(Derived(i % 4, StrFormat("acked_%d", i))).ok());
    if (i == 2) {
      ASSERT_TRUE(live->Checkpoint().ok());  // durable LSN = 3
    }
  }
  EXPECT_EQ(live->wal_status().last_lsn, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(live->wal_status().durable_lsn, 3u);
  EXPECT_EQ(live->wal_status().unsynced_records, 0u);  // per-append fsync

  // SIGKILL mid-append: a torn prefix persists and the batch is NOT
  // acknowledged. The torn append kills that WalWriter, but the engine
  // rolls to a fresh segment past the tear, so the NEXT batch is
  // acknowledged again — and must then survive the crash like any other.
  FaultSpec torn;
  torn.kind = FaultSpec::Kind::kTornWrite;
  torn.arg = 10;
  FailpointRegistry::Instance().Arm("wal.append.write", torn);
  EXPECT_FALSE(live->AddTable(Derived(0, "never_acked")).ok());
  ASSERT_TRUE(live->AddTable(Derived(1, "after_roll")).ok());  // rolled log
  live.reset();  // the crash

  LiveEngine::RecoveryReport report;
  Result<std::unique_ptr<LiveEngine>> recovered =
      LiveEngine::Recover(&store, opts, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(report.wal_durable_lsn, 3u);
  EXPECT_EQ(report.wal_records_replayed,
            static_cast<uint64_t>(kBatches - 3 + 1));  // LSNs 4..9
  EXPECT_GT(report.wal_truncated_bytes, 0u);  // the torn prefix
  EXPECT_EQ(report.wal_last_lsn, static_cast<uint64_t>(kBatches + 1));

  auto gen = (*recovered)->Acquire();
  for (int i = 0; i < kBatches; ++i) {
    EXPECT_TRUE(gen->FindTable(StrFormat("acked_%d", i)).ok())
        << "acknowledged batch " << i << " lost";
  }
  EXPECT_FALSE(gen->FindTable("never_acked").ok());
  EXPECT_TRUE(gen->FindTable("after_roll").ok())
      << "batch acknowledged after the WAL roll lost";
  EXPECT_EQ(gen->visible_table_count(), base().num_tables() + kBatches + 1);

  // The recovered engine keeps ingesting (fresh segment past the tear)
  // and survives a second crash/recovery round-trip losing nothing.
  ASSERT_TRUE((*recovered)->AddTable(Derived(2, "after_recovery")).ok());
  recovered->reset();
  Result<std::unique_ptr<LiveEngine>> again =
      LiveEngine::Recover(&store, opts, &report);
  ASSERT_TRUE(again.ok()) << again.status();
  gen = (*again)->Acquire();
  EXPECT_TRUE(gen->FindTable("after_recovery").ok());
  EXPECT_EQ(gen->visible_table_count(), base().num_tables() + kBatches + 2);
}

/// Removes and re-adds must replay with the same semantics they were
/// acknowledged with: WAL records carry the accepted ops of each batch in
/// order, so a remove→re-add chain survives a crash.
TEST_F(IngestChaosTest, WalReplaysRemovesAndReAdds) {
  const std::string dir = TestDir("wal_removes");
  store::SnapshotStore store(dir);
  LiveEngine::Options opts = LiveOptions();
  opts.store = &store;
  opts.enable_wal = true;
  auto live = MakeLive(opts);
  ASSERT_TRUE(live->Checkpoint().ok());  // empty-delta baseline snapshot

  const std::string base_name = base().table(1).name();
  ASSERT_TRUE(live->AddTable(Derived(0, "added")).ok());
  ASSERT_TRUE(live->RemoveTable(base_name).ok());
  ASSERT_TRUE(live->RemoveTable("added").ok());
  ASSERT_TRUE(live->AddTable(Derived(2, "added")).ok());  // re-add
  live.reset();  // crash with every mutation only in the WAL

  LiveEngine::RecoveryReport report;
  Result<std::unique_ptr<LiveEngine>> recovered =
      LiveEngine::Recover(&store, opts, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(report.wal_records_replayed, 4u);
  auto gen = (*recovered)->Acquire();
  EXPECT_TRUE(gen->FindTable("added").ok());
  EXPECT_FALSE(gen->FindTable(base_name).ok());
  EXPECT_EQ(gen->visible_table_count(), base().num_tables());  // +1 −1
}

/// Fail-stop: when the WAL cannot accept an append, the batch must be
/// rejected — never acknowledged-but-volatile. A transient fault rejects
/// one batch; the writer survives and the next batch lands.
TEST_F(IngestChaosTest, WalAppendFailureRejectsBatchAtomically) {
  const std::string dir = TestDir("wal_fail_stop");
  store::SnapshotStore store(dir);
  LiveEngine::Options opts = LiveOptions();
  opts.store = &store;
  opts.enable_wal = true;
  auto live = MakeLive(opts);

  FailpointRegistry::Instance().Arm("wal.append.write",
                                    FaultSpec{FaultSpec::Kind::kEnospc});
  LiveEngine::Batch batch;
  batch.adds.push_back(Derived(0, "victim_a"));
  batch.adds.push_back(Derived(1, "victim_b"));
  LiveEngine::BatchOutcome outcome = live->ApplyBatch(std::move(batch));
  EXPECT_FALSE(outcome.published);
  ASSERT_EQ(outcome.adds.size(), 2u);
  EXPECT_FALSE(outcome.adds[0].ok());
  EXPECT_FALSE(outcome.adds[1].ok());
  // Nothing leaked into the live state and readers never saw the batch.
  EXPECT_EQ(live->num_delta_tables(), 0u);
  EXPECT_FALSE(live->Acquire()->FindTable("victim_a").ok());

  // Transient fault cleared: the same tables are accepted now, and a
  // recovery sees exactly the acknowledged state.
  ASSERT_TRUE(live->AddTable(Derived(0, "victim_a")).ok());
  ASSERT_TRUE(live->Checkpoint().ok());
  live.reset();
  Result<std::unique_ptr<LiveEngine>> recovered =
      LiveEngine::Recover(&store, opts, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE((*recovered)->Acquire()->FindTable("victim_a").ok());
}

/// Checkpoints advance the durable LSN and garbage-collect covered
/// segments; recovery after the checkpoint replays only the tail.
TEST_F(IngestChaosTest, WalCheckpointAdvancesDurableLsnAndCollectsSegments) {
  const std::string dir = TestDir("wal_gc");
  store::SnapshotStore store(dir);
  LiveEngine::Options opts = LiveOptions();
  opts.store = &store;
  opts.enable_wal = true;
  opts.wal_options.sync = store::WalWriter::SyncPolicy::kNone;
  opts.wal_options.segment_max_bytes = 1;  // rotate on every append
  auto live = MakeLive(opts);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(live->AddTable(Derived(i, StrFormat("seg_%d", i))).ok());
  }
  const std::string wal_dir = dir + "/wal";
  EXPECT_EQ(store::WalWriter::ListSegments(wal_dir).size(), 4u);

  ASSERT_TRUE(live->Checkpoint().ok());
  EXPECT_EQ(live->wal_status().durable_lsn, 4u);
  // All four records are snapshot-covered: only the active segment stays.
  EXPECT_EQ(store::WalWriter::ListSegments(wal_dir).size(), 1u);
  EXPECT_EQ(live->wal_status().unsynced_records, 0u);  // covered by floor

  ASSERT_TRUE(live->AddTable(Derived(0, "tail")).ok());
  live.reset();
  LiveEngine::RecoveryReport report;
  Result<std::unique_ptr<LiveEngine>> recovered =
      LiveEngine::Recover(&store, opts, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(report.deltas_replayed, 4u);       // from the snapshot
  EXPECT_EQ(report.wal_records_replayed, 1u);  // just the tail
  EXPECT_TRUE((*recovered)->Acquire()->FindTable("tail").ok());
}

/// QueryService::Health surfaces the WAL loss window so operators can see
/// acknowledged-but-volatile records next to overload state.
TEST_F(IngestChaosTest, HealthReportsWalLossWindow) {
  const std::string dir = TestDir("wal_health");
  store::SnapshotStore store(dir);
  LiveEngine::Options opts = LiveOptions();
  opts.store = &store;
  opts.enable_wal = true;
  opts.wal_options.sync = store::WalWriter::SyncPolicy::kNone;
  auto live = MakeLive(opts);
  ASSERT_TRUE(live->AddTable(Derived(0, "volatile_a")).ok());
  ASSERT_TRUE(live->AddTable(Derived(1, "volatile_b")).ok());

  serve::QueryService service(live.get(), serve::QueryService::Options{});
  serve::QueryService::HealthSnapshot health = service.Health();
  EXPECT_TRUE(health.wal_enabled);
  EXPECT_EQ(health.wal_last_lsn, 2u);
  EXPECT_EQ(health.wal_durable_lsn, 0u);
  EXPECT_EQ(health.wal_unsynced_records, 2u);  // kNone never fsyncs
  EXPECT_EQ(service.metrics().GetGauge("ingest.wal.unsynced_records")->value(),
            2u);

  ASSERT_TRUE(live->Checkpoint().ok());  // floor covers both records
  health = service.Health();
  EXPECT_EQ(health.wal_durable_lsn, 2u);
  EXPECT_EQ(health.wal_unsynced_records, 0u);
}

/// Full-disk drill (chaos-explorer regression): ENOSPC during the
/// compaction build must degrade gracefully — the current generation
/// keeps serving untouched, the compactor retries with capped exponential
/// backoff instead of hammering the full disk at poll cadence, and the
/// first successful compaction after space returns resets the backoff.
TEST_F(IngestChaosTest, CompactionEnospcBacksOffAndKeepsServing) {
  auto live = MakeLive(LiveOptions());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(live->AddTable(Derived(static_cast<TableId>(i % 3),
                                       StrFormat("enospc_%02d", i)))
                    .ok());
  }
  const uint64_t version_before = live->version();
  const size_t count_before = live->Acquire()->visible_table_count();

  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kEnospc;
  spec.max_fires = 0;  // the disk stays full until the test clears it
  FailpointRegistry::Instance().Arm("ingest.compact.build", spec);

  Compactor::Options copts;
  copts.max_delta_tables = 1000;  // explicit triggers only
  copts.poll_interval_ms = 1;
  copts.backoff_initial_ms = 20;
  copts.backoff_max_ms = 80;
  Compactor compactor(live.get(), copts);

  // Three forced attempts, three failures: backoff doubles to its cap and
  // no partial generation ever publishes.
  for (uint64_t want = 1; want <= 3; ++want) {
    compactor.TriggerNow();
    for (int i = 0; i < 1000 && compactor.failures() < want; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(compactor.failures(), want);
  }
  EXPECT_EQ(compactor.backoff_ms(), 80u);  // 20 -> 40 -> 80 (capped)
  EXPECT_EQ(live->compactions(), 0u);
  EXPECT_EQ(live->version(), version_before);
  EXPECT_EQ(live->Acquire()->visible_table_count(), count_before);
  EXPECT_EQ(live->num_delta_tables(), 5u);  // delta intact for the retry

  // Space returns: the very next attempt succeeds and resets the backoff.
  FailpointRegistry::Instance().Disarm("ingest.compact.build");
  compactor.TriggerNow();
  for (int i = 0; i < 1000 && live->compactions() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    compactor.TriggerNow();
  }
  compactor.Stop();
  EXPECT_GE(live->compactions(), 1u);
  EXPECT_EQ(compactor.backoff_ms(), 0u);
  EXPECT_EQ(live->num_delta_tables(), 0u);
  EXPECT_EQ(live->Acquire()->visible_table_count(), count_before);
}

/// Replay applies records that were acknowledged, so a transient apply
/// failure mid-replay must abort recovery loudly. Skipping the record —
/// what a fire-and-forget replay loop would do — silently drops an
/// acknowledged mutation: here the remove of 'acked_a', whose
/// reappearance would be a resurrection. (Found by tools/chaos_explorer,
/// pinned as tests/data/chaos_seeds/seed-83.plan.)
TEST_F(IngestChaosTest, RecoveryFailsLoudlyWhenReplayCannotApply) {
  const std::string dir = TestDir("replay_failstop");
  store::SnapshotStore store(dir);
  LiveEngine::Options opts = LiveOptions();
  opts.store = &store;
  opts.enable_wal = true;
  auto live = MakeLive(opts);
  ASSERT_TRUE(live->Checkpoint().ok());
  ASSERT_TRUE(live->AddTable(Derived(0, "acked_a")).ok());  // WAL LSN 1
  ASSERT_TRUE(live->RemoveTable("acked_a").ok());           // WAL LSN 2
  live.reset();  // crash: both mutations live only in the WAL

  // Hits post-arm: 1 = the checkpointed-delta batch, 2 = LSN 1 (add),
  // 3 = LSN 2 (the remove) — which is the one the fault rejects.
  FaultSpec fault;
  fault.after_hits = 2;
  FailpointRegistry::Instance().Arm("ingest.publish.swap", fault);
  Result<std::unique_ptr<LiveEngine>> recovered =
      LiveEngine::Recover(&store, opts, nullptr);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().ToString().find("replaying WAL record"),
            std::string::npos)
      << recovered.status().ToString();

  // The fault passes (operator fixed the disk): the same store recovers
  // cleanly and the remove is honored.
  FailpointRegistry::Instance().ClearAll();
  recovered = LiveEngine::Recover(&store, opts, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE((*recovered)->Acquire()->FindTable("acked_a").ok());
}

}  // namespace
}  // namespace lake::ingest
