// Back-compat regression tests over checked-in golden artifacts
// (tests/data, regenerated only via tools/make_compat_golden): a
// pre-ingest (PR 2 era) snapshot envelope and a serialized metrics
// snapshot. These pin the on-disk formats — "LKS1" store envelopes and
// "LSM2" metrics snapshots written before the ingest subsystem existed
// must keep loading, and ingest-aware recovery must treat them as an
// empty delta, not an error.

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ingest/live_engine.h"
#include "search/discovery_engine.h"
#include "serve/metrics.h"
#include "store/snapshot.h"
#include "table/catalog.h"
#include "util/serialize.h"
#include "util/string_util.h"

namespace lake {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lake_compat_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

std::string GoldenBytes(const std::string& name) {
  return ReadFileBytes(std::string(LAKE_TEST_DATA_DIR) + "/" + name);
}

/// The engine options the golden snapshot was produced with (see
/// tools/make_compat_golden.cc).
DiscoveryEngine::Options GoldenOptions() {
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

/// Reconstructs a committed SnapshotStore directory holding `bytes` as
/// generation 1, the way PR 2's store would have left it on disk.
std::string MakeStoreDir(const std::string& name, const std::string& bytes) {
  const std::string dir = TestDir(name);
  const std::string file = store::SnapshotStore::SnapshotFileName(1);
  {
    std::ofstream out(dir + "/" + file, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::ofstream manifest(dir + "/MANIFEST");
  manifest << "LAKE-MANIFEST v1\n"
           << StrFormat("1 %s %llu\n", file.c_str(),
                        static_cast<unsigned long long>(bytes.size()));
  return dir;
}

/// Copies the checked-in wal_era store directory (snapshot + MANIFEST +
/// wal/ segment) into a scratch dir, since recovery appends to the WAL.
std::string CopyWalEraDir(const std::string& name) {
  const std::string dir = TestDir(name);
  fs::copy(std::string(LAKE_TEST_DATA_DIR) + "/wal_era", dir,
           fs::copy_options::recursive | fs::copy_options::overwrite_existing);
  return dir;
}

TEST(StoreCompatTest, PreIngestEnvelopeParsesWithExpectedSections) {
  Result<store::SnapshotReader> reader =
      store::SnapshotReader::Parse(GoldenBytes("pre_ingest_snap.lks"));
  ASSERT_TRUE(reader.ok()) << reader.status();

  size_t tables = 0;
  for (const auto& section : reader->sections()) {
    if (section.name.rfind("table/", 0) == 0) ++tables;
    // A PR 2 era snapshot must not contain ingest sections.
    EXPECT_NE(section.name, ingest::LiveEngine::kStateSection);
    EXPECT_NE(section.name.rfind(ingest::LiveEngine::kDeltaPrefix, 0), 0u)
        << section.name;
  }
  EXPECT_EQ(tables, 3u);
  EXPECT_TRUE(reader->ReadSection(DiscoveryEngine::kJosieSection).ok());
  EXPECT_TRUE(reader->ReadSection(DiscoveryEngine::kStarmieSection).ok());
}

TEST(StoreCompatTest, PreIngestSnapshotLoadsCatalogAndIndexes) {
  const std::string dir =
      MakeStoreDir("load", GoldenBytes("pre_ingest_snap.lks"));
  store::SnapshotStore store(dir);
  Result<store::SnapshotStore::Opened> opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->generation, 1u);

  DataLakeCatalog catalog;
  Result<std::vector<TableId>> ids = catalog.LoadSnapshot(opened->reader);
  ASSERT_TRUE(ids.ok()) << ids.status();
  EXPECT_EQ(ids->size(), 3u);
  EXPECT_TRUE(catalog.quarantined().empty());
  EXPECT_TRUE(catalog.FindTable("city_population").ok());

  // Both golden index sections load and validate: nothing is rebuilt.
  size_t loaded = 0, rebuilt = 0;
  std::unique_ptr<DiscoveryEngine> engine = DiscoveryEngine::Restore(
      &catalog, nullptr, GoldenOptions(), opened->reader, &loaded, &rebuilt);
  EXPECT_EQ(loaded, 2u);
  EXPECT_EQ(rebuilt, 0u);
  EXPECT_NE(engine->josie_join(), nullptr);
  EXPECT_NE(engine->starmie(), nullptr);
  EXPECT_FALSE(engine->Keyword("city", 10).empty());
}

TEST(StoreCompatTest, IngestRecoveryTreatsPreIngestSnapshotAsEmptyDelta) {
  const std::string dir =
      MakeStoreDir("recover", GoldenBytes("pre_ingest_snap.lks"));
  store::SnapshotStore store(dir);
  ingest::LiveEngine::Options opts;
  opts.base_options = GoldenOptions();

  ingest::LiveEngine::RecoveryReport report;
  Result<std::unique_ptr<ingest::LiveEngine>> live =
      ingest::LiveEngine::Recover(&store, opts, &report);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(report.snapshot_generation, 1u);
  EXPECT_EQ(report.tables_loaded, 3u);
  EXPECT_EQ(report.index_sections_loaded, 2u);
  EXPECT_EQ(report.index_sections_rebuilt, 0u);
  EXPECT_EQ(report.deltas_replayed, 0u);
  EXPECT_EQ(report.tombstones_replayed, 0u);

  auto gen = (*live)->Acquire();
  EXPECT_FALSE(gen->has_delta());
  EXPECT_EQ(gen->visible_table_count(), 3u);

  // The recovered engine is fully live: it accepts new tables and its next
  // checkpoint upgrades the store to an ingest-aware generation in place.
  Table extra = gen->base_catalog().table(0);
  extra.set_name("post_upgrade");
  ASSERT_TRUE((*live)->AddTable(std::move(extra)).ok());
  ASSERT_TRUE((*live)->Checkpoint().ok());
  Result<store::SnapshotStore::Opened> upgraded = store.OpenLatest();
  ASSERT_TRUE(upgraded.ok());
  EXPECT_EQ(upgraded->generation, 2u);
  EXPECT_TRUE(
      upgraded->reader.ReadSection(ingest::LiveEngine::kStateSection).ok());
}

TEST(StoreCompatTest, CorruptTableSectionIsQuarantinedNotFatal) {
  std::string bytes = GoldenBytes("pre_ingest_snap.lks");
  {
    Result<store::SnapshotReader> reader =
        store::SnapshotReader::Parse(bytes);
    ASSERT_TRUE(reader.ok());
    bool flipped = false;
    for (const auto& section : reader->sections()) {
      if (section.name == "table/city_weather") {
        bytes[section.offset + section.size / 2] ^= 0x01;
        flipped = true;
      }
    }
    ASSERT_TRUE(flipped);
  }

  Result<store::SnapshotReader> reader = store::SnapshotReader::Parse(bytes);
  ASSERT_TRUE(reader.ok());  // framing is intact; only one payload is bad
  DataLakeCatalog catalog;
  Result<std::vector<TableId>> ids = catalog.LoadSnapshot(*reader);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 2u);
  ASSERT_EQ(catalog.quarantined().size(), 1u);
  EXPECT_EQ(catalog.quarantined()[0].path, "table/city_weather");
  EXPECT_TRUE(catalog.FindTable("city_population").ok());
  EXPECT_FALSE(catalog.FindTable("city_weather").ok());

  // Ingest-aware recovery over the damaged envelope: the stale index
  // sections no longer match the surviving tables, so recovery falls back
  // to a fresh base build — it never serves an index over quarantined
  // tables.
  const std::string dir = MakeStoreDir("corrupt", bytes);
  store::SnapshotStore store(dir);
  ingest::LiveEngine::Options opts;
  opts.base_options = GoldenOptions();
  ingest::LiveEngine::RecoveryReport report;
  Result<std::unique_ptr<ingest::LiveEngine>> live =
      ingest::LiveEngine::Recover(&store, opts, &report);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(report.tables_loaded, 2u);
  EXPECT_GE(report.index_sections_rebuilt, 1u);
  auto gen = (*live)->Acquire();
  EXPECT_EQ(gen->visible_table_count(), 2u);
  EXPECT_FALSE(gen->base().Keyword("city", 10).empty());
}

// --- WAL-era store golden (PR 5) ----------------------------------------
//
// The wal_era directory holds snapshot generation 1 (base + delta table
// "wal_covered", durable LSN 1 in the ingest/wal section) next to a WAL
// segment whose tail record (LSN 2) adds "wal_tail". The snapshot must
// stay readable to recovery with the WAL feature off — the tail batch is
// simply invisible — and WAL-aware recovery must replay it.

TEST(StoreCompatTest, WalEraStoreRecoversWithWalFeatureDisabled) {
  const std::string dir = CopyWalEraDir("wal_era_off");
  store::SnapshotStore store(dir);
  ingest::LiveEngine::Options opts;
  opts.base_options = GoldenOptions();
  opts.enable_wal = false;

  ingest::LiveEngine::RecoveryReport report;
  Result<std::unique_ptr<ingest::LiveEngine>> live =
      ingest::LiveEngine::Recover(&store, opts, &report);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(report.snapshot_generation, 1u);
  EXPECT_EQ(report.tables_loaded, 3u);
  EXPECT_EQ(report.deltas_replayed, 1u);
  // The durable-LSN marker parses even when replay is off; the tail
  // record is ignored, not an error.
  EXPECT_EQ(report.wal_durable_lsn, 1u);
  EXPECT_EQ(report.wal_records_replayed, 0u);

  auto gen = (*live)->Acquire();
  EXPECT_EQ(gen->visible_table_count(), 4u);
  EXPECT_TRUE(gen->FindTable("wal_covered").ok());
  EXPECT_FALSE(gen->FindTable("wal_tail").ok());
  EXPECT_FALSE((*live)->wal_status().enabled);
}

TEST(StoreCompatTest, WalEraStoreReplaysTailBatchWithWalFeatureEnabled) {
  const std::string dir = CopyWalEraDir("wal_era_on");
  store::SnapshotStore store(dir);
  ingest::LiveEngine::Options opts;
  opts.base_options = GoldenOptions();
  opts.enable_wal = true;

  ingest::LiveEngine::RecoveryReport report;
  Result<std::unique_ptr<ingest::LiveEngine>> live =
      ingest::LiveEngine::Recover(&store, opts, &report);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(report.snapshot_generation, 1u);
  EXPECT_EQ(report.deltas_replayed, 1u);
  EXPECT_EQ(report.wal_durable_lsn, 1u);
  EXPECT_EQ(report.wal_records_replayed, 1u);
  EXPECT_EQ(report.wal_last_lsn, 2u);
  EXPECT_EQ(report.wal_truncated_bytes, 0u);

  auto gen = (*live)->Acquire();
  EXPECT_EQ(gen->visible_table_count(), 5u);
  EXPECT_TRUE(gen->FindTable("wal_covered").ok());
  EXPECT_TRUE(gen->FindTable("wal_tail").ok());

  const ingest::LiveEngine::WalStatus wal = (*live)->wal_status();
  EXPECT_TRUE(wal.enabled);
  EXPECT_EQ(wal.last_lsn, 2u);
  EXPECT_EQ(wal.durable_lsn, 1u);

  // The recovered engine keeps logging: a checkpoint advances the durable
  // floor past the replayed tail and commits a new generation.
  ASSERT_TRUE((*live)->Checkpoint().ok());
  EXPECT_EQ((*live)->wal_status().durable_lsn, 2u);
  Result<store::SnapshotStore::Opened> upgraded = store.OpenLatest();
  ASSERT_TRUE(upgraded.ok());
  EXPECT_EQ(upgraded->generation, 2u);
}

TEST(StoreCompatTest, PreWalSnapshotRecoversWithWalFeatureEnabled) {
  // Turning the WAL on over a pre-WAL store must be a clean upgrade: no
  // wal/ dir and no ingest/wal section recover to LSN 0 with an empty log.
  const std::string dir =
      MakeStoreDir("prewal_walon", GoldenBytes("pre_ingest_snap.lks"));
  store::SnapshotStore store(dir);
  ingest::LiveEngine::Options opts;
  opts.base_options = GoldenOptions();
  opts.enable_wal = true;

  ingest::LiveEngine::RecoveryReport report;
  Result<std::unique_ptr<ingest::LiveEngine>> live =
      ingest::LiveEngine::Recover(&store, opts, &report);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(report.tables_loaded, 3u);
  EXPECT_EQ(report.wal_durable_lsn, 0u);
  EXPECT_EQ(report.wal_records_replayed, 0u);
  EXPECT_EQ(report.wal_truncated_bytes, 0u);

  // First mutation after the upgrade is logged at LSN 1.
  Table extra = (*live)->Acquire()->base_catalog().table(0);
  extra.set_name("first_logged");
  ASSERT_TRUE((*live)->AddTable(std::move(extra)).ok());
  const ingest::LiveEngine::WalStatus wal = (*live)->wal_status();
  EXPECT_TRUE(wal.enabled);
  EXPECT_EQ(wal.last_lsn, 1u);
}

TEST(StoreCompatTest, MetricsSnapshotV2RoundTrips) {
  const std::string bytes = GoldenBytes("metrics_v2.bin");
  std::istringstream in(bytes);
  BinaryReader reader(&in);
  Result<serve::MetricsRegistry::Snapshot> snap =
      serve::ReadSnapshot(&reader);
  ASSERT_TRUE(snap.ok()) << snap.status();

  ASSERT_EQ(snap->counters.size(), 2u);
  EXPECT_EQ(snap->counters[0].first, "serve.cache.hits");
  EXPECT_EQ(snap->counters[0].second, 41u);
  EXPECT_EQ(snap->counters[1].first, "serve.queries");
  EXPECT_EQ(snap->counters[1].second, 1297u);
  ASSERT_EQ(snap->gauges.size(), 2u);
  EXPECT_EQ(snap->gauges[1].first, "serve.quarantined_sections");
  EXPECT_EQ(snap->gauges[1].second, 2u);
  ASSERT_EQ(snap->histograms.size(), 1u);
  const serve::MetricsRegistry::HistogramRow& h = snap->histograms[0];
  EXPECT_EQ(h.name, "serve.latency.keyword");
  EXPECT_EQ(h.count, 512u);
  EXPECT_DOUBLE_EQ(h.mean_us, 133.5);
  EXPECT_DOUBLE_EQ(h.p50_us, 120.0);
  EXPECT_DOUBLE_EQ(h.p95_us, 240.0);
  EXPECT_DOUBLE_EQ(h.p99_us, 310.5);
  EXPECT_DOUBLE_EQ(h.max_us, 402.25);

  // Writing today's format over the same rows reproduces the golden bytes
  // exactly — the serialization is still v2.
  std::ostringstream out;
  BinaryWriter writer(&out);
  ASSERT_TRUE(serve::WriteSnapshot(*snap, &writer).ok());
  EXPECT_EQ(out.str(), bytes);
}

}  // namespace
}  // namespace lake
