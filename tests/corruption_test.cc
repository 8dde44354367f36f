// Corruption sweeps and end-to-end degraded-mode serving: every single-byte
// corruption or truncation of a persisted index must surface as a non-OK
// Status (or load an equivalent index when the damaged byte is outside any
// verified region) — never a crash — and a service whose snapshot sections
// are partly corrupt must keep serving the healthy modalities.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/hnsw.h"
#include "index/josie.h"
#include "lakegen/generator.h"
#include "search/discovery_engine.h"
#include "serve/query_service.h"
#include "store/recovery.h"
#include "store/snapshot.h"
#include "util/failpoint.h"

namespace lake {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lake_corrupt_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Writes `index` to `path` in the checksummed snapshot envelope the
/// engine's index sections use: a "meta" section holding the kind tag and
/// an "index" section holding the Save payload.
template <typename Index>
Status SaveEnvelope(const Index& index, const std::string& kind,
                    const std::string& path) {
  store::SnapshotWriter snapshot;
  snapshot.AddSection("meta", kind);
  std::ostringstream payload;
  LAKE_RETURN_IF_ERROR(index.Save(&payload));
  snapshot.AddSection("index", std::move(payload).str());
  return snapshot.WriteToFile(path);
}

/// Reads an envelope written by SaveEnvelope into `index`. Both sections
/// are CRC-verified before `index` is touched.
template <typename Index>
Status LoadEnvelope(const std::string& path, const std::string& kind,
                    Index* index) {
  LAKE_ASSIGN_OR_RETURN(store::SnapshotReader reader,
                        store::SnapshotReader::OpenFile(path));
  LAKE_ASSIGN_OR_RETURN(std::string tag, reader.ReadSection("meta"));
  if (tag != kind) return Status::IoError("envelope holds a " + tag);
  LAKE_ASSIGN_OR_RETURN(std::string payload, reader.ReadSection("index"));
  std::istringstream in(payload);
  return index->Load(&in);
}

// ------------------------------------------------------------ HNSW sweep

HnswIndex BuildSmallHnsw() {
  HnswIndex::Options options;
  options.dim = 8;
  options.m = 4;
  options.ef_construction = 32;
  HnswIndex index(options);
  for (uint64_t i = 0; i < 12; ++i) {
    Vector vec(8);
    for (size_t d = 0; d < 8; ++d) {
      vec[d] = static_cast<float>((i * 31 + d * 7) % 13) - 6.0f;
    }
    EXPECT_TRUE(index.Insert(i, std::move(vec)).ok());
  }
  return index;
}

Vector ProbeVector() {
  Vector q(8);
  for (size_t d = 0; d < 8; ++d) q[d] = static_cast<float>(d) - 3.5f;
  return q;
}

TEST(CorruptionSweepTest, HnswEveryByteFlip) {
  const std::string dir = TestDir("hnsw_flip");
  const std::string path = dir + "/hnsw.lks";
  const HnswIndex original = BuildSmallHnsw();
  ASSERT_TRUE(SaveEnvelope(original, "hnsw", path).ok());
  const std::string clean = ReadFileBytes(path);
  ASSERT_GT(clean.size(), 100u);

  const auto baseline = original.Search(ProbeVector(), 5);
  ASSERT_TRUE(baseline.ok());

  const std::string corrupt_path = dir + "/corrupt.lks";
  size_t rejected = 0;
  for (size_t i = 0; i < clean.size(); ++i) {
    std::string bytes = clean;
    bytes[i] ^= 1;
    WriteFileBytes(corrupt_path, bytes);

    HnswIndex loaded(HnswIndex::Options{});
    const Status status = LoadEnvelope(corrupt_path, "hnsw", &loaded);
    if (!status.ok()) {
      ++rejected;
      continue;
    }
    // A flip the checksums cannot see (e.g. in the declared section count)
    // must still yield an index equivalent to the original: all data
    // bytes are CRC-verified.
    EXPECT_EQ(loaded.size(), original.size()) << "byte " << i;
    const auto got = loaded.Search(ProbeVector(), 5);
    ASSERT_TRUE(got.ok()) << "byte " << i;
    ASSERT_EQ(got->size(), baseline->size()) << "byte " << i;
    for (size_t r = 0; r < got->size(); ++r) {
      EXPECT_EQ((*got)[r].id, (*baseline)[r].id) << "byte " << i;
    }
  }
  // The overwhelming majority of flips must be caught outright.
  EXPECT_GT(rejected, clean.size() * 9 / 10);
}

TEST(CorruptionSweepTest, HnswEveryTruncation) {
  const std::string dir = TestDir("hnsw_trunc");
  const std::string path = dir + "/hnsw.lks";
  ASSERT_TRUE(SaveEnvelope(BuildSmallHnsw(), "hnsw", path).ok());
  const std::string clean = ReadFileBytes(path);

  const std::string corrupt_path = dir + "/corrupt.lks";
  for (size_t len = 0; len < clean.size(); ++len) {
    WriteFileBytes(corrupt_path, clean.substr(0, len));
    HnswIndex loaded(HnswIndex::Options{});
    EXPECT_FALSE(LoadEnvelope(corrupt_path, "hnsw", &loaded).ok())
        << "length " << len;
  }
}

// ----------------------------------------------------------- JOSIE sweep

JosieIndex BuildSmallJosie() {
  JosieIndex index;
  const std::vector<std::vector<std::string>> sets = {
      {"ottawa", "toronto", "montreal", "vancouver"},
      {"toronto", "calgary", "edmonton"},
      {"ottawa", "halifax", "winnipeg", "toronto", "regina"},
      {"paris", "lyon", "nice"},
  };
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_TRUE(index.AddSet(i, sets[i]).ok());
  }
  EXPECT_TRUE(index.Build().ok());
  return index;
}

TEST(CorruptionSweepTest, JosieEveryByteFlipAndTruncation) {
  const std::string dir = TestDir("josie");
  const std::string path = dir + "/josie.lks";
  const JosieIndex original = BuildSmallJosie();
  ASSERT_TRUE(SaveEnvelope(original, "josie", path).ok());
  const std::string clean = ReadFileBytes(path);

  const std::vector<std::string> probe = {"ottawa", "toronto", "calgary"};
  const auto baseline = original.TopK(probe, 3);
  ASSERT_TRUE(baseline.ok());

  const std::string corrupt_path = dir + "/corrupt.lks";
  size_t rejected = 0;
  for (size_t i = 0; i < clean.size(); ++i) {
    std::string bytes = clean;
    bytes[i] ^= 1;
    WriteFileBytes(corrupt_path, bytes);
    JosieIndex loaded;
    const Status status = LoadEnvelope(corrupt_path, "josie", &loaded);
    if (!status.ok()) {
      ++rejected;
      continue;
    }
    const auto got = loaded.TopK(probe, 3);
    ASSERT_TRUE(got.ok()) << "byte " << i;
    ASSERT_EQ(got->size(), baseline->size()) << "byte " << i;
    for (size_t r = 0; r < got->size(); ++r) {
      EXPECT_EQ((*got)[r].id, (*baseline)[r].id) << "byte " << i;
      EXPECT_EQ((*got)[r].overlap, (*baseline)[r].overlap) << "byte " << i;
    }
  }
  EXPECT_GT(rejected, clean.size() * 9 / 10);

  for (size_t len = 0; len < clean.size(); ++len) {
    WriteFileBytes(corrupt_path, clean.substr(0, len));
    JosieIndex loaded;
    EXPECT_FALSE(LoadEnvelope(corrupt_path, "josie", &loaded).ok())
        << "length " << len;
  }
}

// --------------------------------------------- degraded-mode end-to-end

/// Small generated lake + fully-built engine shared by the degraded-mode
/// tests. The built engine is the "writer" process; each test constructs
/// its own deferred "reader" engine that restores from a SnapshotStore.
class DegradedServingTest : public ::testing::Test {
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
    writer_engine_ =
        new DiscoveryEngine(&lake_->catalog, &lake_->kb, EngineOptions(false));
  }

  static void TearDownTestSuite() {
    delete writer_engine_;
    delete lake_;
    writer_engine_ = nullptr;
    lake_ = nullptr;
  }

  void TearDown() override { FailpointRegistry::Instance().ClearAll(); }

  static DiscoveryEngine::Options EngineOptions(bool defer) {
    DiscoveryEngine::Options eopts;
    eopts.build_exact_join = false;
    eopts.build_lsh_join = false;
    // No approx tier either: ServesDegradedThenRecovers needs a join
    // modality with no brownout fallback at all.
    eopts.build_approx = false;
    eopts.build_pexeso = false;
    eopts.build_mate = false;
    eopts.build_correlated = false;
    eopts.build_tus = false;
    eopts.build_santos = false;
    eopts.build_d3l = false;
    eopts.synthesize_kb = false;
    eopts.train_annotator = false;
    eopts.defer_index_build = defer;
    return eopts;
  }

  /// Commits the writer engine's index sections as the next generation.
  static uint64_t CommitIndexes(store::SnapshotStore* store) {
    store::SnapshotWriter snapshot;
    EXPECT_TRUE(writer_engine_->SaveIndexSections(&snapshot).ok());
    auto gen = store->Commit(snapshot);
    EXPECT_TRUE(gen.ok()) << gen.status().ToString();
    return gen.value();
  }

  /// Flips one payload byte of `section` inside generation `gen`'s file.
  static void CorruptSection(const std::string& dir, uint64_t gen,
                             const std::string& section) {
    const std::string path =
        dir + "/" + store::SnapshotStore::SnapshotFileName(gen);
    auto reader = store::SnapshotReader::OpenFile(path);
    ASSERT_TRUE(reader.ok());
    for (const auto& info : reader->sections()) {
      if (info.name != section) continue;
      std::string bytes = ReadFileBytes(path);
      ASSERT_LT(info.offset + 5, bytes.size());
      bytes[info.offset + 5] ^= 1;
      WriteFileBytes(path, bytes);
      return;
    }
    FAIL() << "section " << section << " not found in " << path;
  }

  static serve::QueryRequest JoinRequest() {
    serve::QueryRequest req;
    req.kind = serve::QueryKind::kJoin;
    req.join_method = JoinMethod::kJosie;
    req.values = lake_->catalog.table(0).column(0).DistinctStrings();
    req.k = 5;
    req.bypass_cache = true;
    return req;
  }

  static GeneratedLake* lake_;
  static DiscoveryEngine* writer_engine_;
};

GeneratedLake* DegradedServingTest::lake_ = nullptr;
DiscoveryEngine* DegradedServingTest::writer_engine_ = nullptr;

TEST_F(DegradedServingTest, DeferredEngineRestoresFromSnapshot) {
  const std::string dir = TestDir("restore");
  store::SnapshotStore store(dir);
  CommitIndexes(&store);

  DiscoveryEngine engine(&lake_->catalog, &lake_->kb, EngineOptions(true));
  EXPECT_EQ(engine.josie_join(), nullptr);
  EXPECT_EQ(engine.starmie(), nullptr);
  EXPECT_EQ(engine.PendingIndexSections(),
            (std::vector<std::string>{DiscoveryEngine::kJosieSection,
                                      DiscoveryEngine::kStarmieSection}));

  store::RecoveryManager recovery(&store);
  for (const std::string& section : engine.PendingIndexSections()) {
    recovery.Register(section, [&engine, section](const std::string& payload) {
      return engine.LoadIndexSection(section, payload);
    });
  }
  ASSERT_TRUE(recovery.RecoverAll().ok());
  ASSERT_NE(engine.josie_join(), nullptr);
  ASSERT_NE(engine.starmie(), nullptr);

  // The restored engine answers exactly like the engine that built the
  // indexes from scratch.
  const auto query = lake_->catalog.table(0).column(0).DistinctStrings();
  const auto direct = writer_engine_->Joinable(query, JoinMethod::kJosie, 5);
  const auto restored = engine.Joinable(query, JoinMethod::kJosie, 5);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ((*restored)[i].column, (*direct)[i].column);
    EXPECT_DOUBLE_EQ((*restored)[i].score, (*direct)[i].score);
  }
}

TEST_F(DegradedServingTest, KillDuringSaveRecoversPreviousGeneration) {
  const std::string dir = TestDir("kill");
  store::SnapshotStore store(dir);
  const uint64_t gen1 = CommitIndexes(&store);

  // "Crash" 1: the envelope write tears mid-file.
  {
    ScopedFailpoint scoped(
        "store.snap.write", FaultSpec{FaultSpec::Kind::kTornWrite, 0, 64});
    store::SnapshotWriter snapshot;
    ASSERT_TRUE(writer_engine_->SaveIndexSections(&snapshot).ok());
    EXPECT_FALSE(store.Commit(snapshot).ok());
  }
  // "Crash" 2: the MANIFEST rename (the commit point) never happens.
  {
    ScopedFailpoint scoped("store.manifest.rename", FaultSpec{});
    store::SnapshotWriter snapshot;
    ASSERT_TRUE(writer_engine_->SaveIndexSections(&snapshot).ok());
    EXPECT_FALSE(store.Commit(snapshot).ok());
  }

  // Recovery still restores every index from the surviving generation.
  auto opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->generation, gen1);

  DiscoveryEngine engine(&lake_->catalog, &lake_->kb, EngineOptions(true));
  store::RecoveryManager recovery(&store);
  for (const std::string& section : engine.PendingIndexSections()) {
    recovery.Register(section, [&engine, section](const std::string& payload) {
      return engine.LoadIndexSection(section, payload);
    });
  }
  EXPECT_TRUE(recovery.RecoverAll().ok());
  EXPECT_FALSE(recovery.degraded());
  EXPECT_EQ(recovery.recovered_generation(), gen1);
}

TEST_F(DegradedServingTest, ServesDegradedThenRecovers) {
  const std::string dir = TestDir("degraded");
  store::SnapshotStore store(dir);
  const uint64_t gen1 = CommitIndexes(&store);
  // Corrupt the JOSIE section in the only committed generation, so
  // per-section generation fallback cannot silently heal it.
  CorruptSection(dir, gen1, DiscoveryEngine::kJosieSection);

  DiscoveryEngine engine(&lake_->catalog, &lake_->kb, EngineOptions(true));
  uint64_t fake_now = 1000;
  store::RecoveryManager::Options ropts;
  ropts.backoff_initial_ms = 100;
  ropts.now_ms = [&fake_now] { return fake_now; };
  store::RecoveryManager recovery(&store, ropts);
  for (const std::string& section : engine.PendingIndexSections()) {
    recovery.Register(section, [&engine, section](const std::string& payload) {
      return engine.LoadIndexSection(section, payload);
    });
  }

  // Startup is degraded, not dead: starmie restored, josie quarantined.
  EXPECT_FALSE(recovery.RecoverAll().ok());
  EXPECT_TRUE(recovery.degraded());
  ASSERT_NE(engine.starmie(), nullptr);
  EXPECT_EQ(engine.josie_join(), nullptr);
  ASSERT_EQ(recovery.quarantined().size(), 1u);
  EXPECT_EQ(recovery.quarantined()[0].section, DiscoveryEngine::kJosieSection);

  serve::QueryService::Options sopts;
  sopts.enable_cache = false;
  sopts.recovery = &recovery;
  serve::QueryService service(&engine, sopts);

  // Healthy modalities keep serving.
  serve::QueryRequest keyword;
  keyword.kind = serve::QueryKind::kKeyword;
  keyword.keyword = lake_->topic_of[0];
  keyword.k = 5;
  EXPECT_TRUE(service.Execute(keyword).status.ok());

  serve::QueryRequest union_req;
  union_req.kind = serve::QueryKind::kUnion;
  union_req.union_method = UnionMethod::kStarmie;
  union_req.union_table = &lake_->catalog.table(1);
  union_req.exclude = 1;
  union_req.k = 5;
  EXPECT_TRUE(service.Execute(union_req).status.ok());

  // The quarantined modality fails fast with FailedPrecondition and is
  // counted as unavailable, not as a generic failure.
  const serve::QueryResponse join = service.Execute(JoinRequest());
  EXPECT_EQ(join.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.metrics().GetCounter("serve.queries.unavailable")->value(),
            1u);

  // Health reflects the quarantine and refreshes the gauges.
  serve::QueryService::HealthSnapshot health = service.Health();
  EXPECT_FALSE(health.ok);
  EXPECT_TRUE(health.degraded);
  ASSERT_EQ(health.quarantined.size(), 1u);
  EXPECT_EQ(health.quarantined[0].section, DiscoveryEngine::kJosieSection);
  EXPECT_EQ(service.metrics().GetGauge("serve.degraded")->value(), 1u);
  EXPECT_EQ(service.metrics().GetGauge("serve.quarantined_sections")->value(),
            1u);

  // Operator repairs the store (a fresh commit); after the backoff the
  // retry loop restores the modality. No queries are in flight.
  CommitIndexes(&store);
  fake_now += 100'000;
  EXPECT_EQ(recovery.RetryQuarantined(), 1u);
  ASSERT_NE(engine.josie_join(), nullptr);
  EXPECT_TRUE(service.Execute(JoinRequest()).status.ok());

  health = service.Health();
  EXPECT_TRUE(health.ok);
  EXPECT_FALSE(health.degraded);
  EXPECT_TRUE(health.quarantined.empty());
  EXPECT_EQ(service.metrics().GetGauge("serve.degraded")->value(), 0u);
  EXPECT_EQ(service.metrics().GetGauge("serve.quarantined_sections")->value(),
            0u);
}

TEST_F(DegradedServingTest, CatalogSnapshotQuarantinesCorruptTable) {
  const std::string dir = TestDir("catalog");
  store::SnapshotStore store(dir);
  store::SnapshotWriter snapshot;
  ASSERT_TRUE(lake_->catalog.SaveSnapshot(&snapshot).ok());
  auto gen = store.Commit(snapshot);
  ASSERT_TRUE(gen.ok());

  const std::string first_table = "table/" + lake_->catalog.table(0).name();
  CorruptSection(dir, *gen, first_table);

  auto opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok());
  DataLakeCatalog restored;
  auto ids = restored.LoadSnapshot(opened->reader);
  ASSERT_TRUE(ids.ok());
  // One flipped bit costs one table, not the lake.
  EXPECT_EQ(ids->size(), lake_->catalog.num_tables() - 1);
  ASSERT_EQ(restored.quarantined().size(), 1u);
  EXPECT_EQ(restored.quarantined()[0].path, first_table);
  EXPECT_EQ(restored.quarantined()[0].status.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace lake
