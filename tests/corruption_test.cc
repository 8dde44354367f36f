// Corruption sweeps and end-to-end index restore: every single-byte
// corruption or truncation of a persisted index must surface as a non-OK
// Status (or load an equivalent index when the damaged byte is outside any
// verified region) — never a crash — and an engine restored from a store
// whose index sections are partly corrupt must rebuild them from the
// tables and answer exactly like a cold build.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "index/hnsw.h"
#include "index/josie.h"
#include "ingest/live_engine.h"
#include "lakegen/generator.h"
#include "search/discovery_engine.h"
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

// --------------------------------------------------- restore end-to-end

template <typename Hit>
void ExpectSameResults(const std::vector<Hit>& got,
                       const std::vector<Hit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if constexpr (std::is_same_v<Hit, ColumnResult>) {
      EXPECT_EQ(got[i].column, want[i].column) << "rank " << i;
    } else {
      EXPECT_EQ(got[i].table_id, want[i].table_id) << "rank " << i;
    }
    EXPECT_DOUBLE_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

/// Small generated lake + fully-built engine shared by the restore tests.
/// The built engine is the "writer" process; each test restores its own
/// "reader" engine from a SnapshotStore.
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
        new DiscoveryEngine(&lake_->catalog, &lake_->kb, EngineOptions());
  }

  static void TearDownTestSuite() {
    delete writer_engine_;
    delete lake_;
    writer_engine_ = nullptr;
    lake_ = nullptr;
  }

  void TearDown() override { FailpointRegistry::Instance().ClearAll(); }

  /// Keyword, JOSIE and Starmie only: the persistable indexes plus one
  /// modality that is always built from the tables.
  static DiscoveryEngine::Options EngineOptions() {
    DiscoveryEngine::Options eopts;
    eopts.build_exact_join = false;
    eopts.build_lsh_join = false;
    eopts.build_approx = false;
    eopts.build_pexeso = false;
    eopts.build_mate = false;
    eopts.build_correlated = false;
    eopts.build_tus = false;
    eopts.build_santos = false;
    eopts.build_d3l = false;
    eopts.synthesize_kb = false;
    eopts.train_annotator = false;
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

  /// `engine` answers keyword, JOSIE-join and Starmie-union queries
  /// exactly like the writer engine.
  static void ExpectAnswersLikeWriter(const DiscoveryEngine& engine) {
    const std::string keyword = lake_->topic_of[0];
    ExpectSameResults(engine.Keyword(keyword, 5),
                      writer_engine_->Keyword(keyword, 5));

    const auto values = lake_->catalog.table(0).column(0).DistinctStrings();
    const auto join = engine.Joinable(values, JoinMethod::kJosie, 5);
    const auto want_join =
        writer_engine_->Joinable(values, JoinMethod::kJosie, 5);
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    ASSERT_TRUE(want_join.ok());
    ExpectSameResults(*join, *want_join);

    const Table& query = lake_->catalog.table(1);
    const auto unioned = engine.Unionable(query, UnionMethod::kStarmie, 5, 1);
    const auto want_union =
        writer_engine_->Unionable(query, UnionMethod::kStarmie, 5, 1);
    ASSERT_TRUE(unioned.ok()) << unioned.status().ToString();
    ASSERT_TRUE(want_union.ok());
    ExpectSameResults(*unioned, *want_union);
  }

  static GeneratedLake* lake_;
  static DiscoveryEngine* writer_engine_;
};

GeneratedLake* DegradedServingTest::lake_ = nullptr;
DiscoveryEngine* DegradedServingTest::writer_engine_ = nullptr;

TEST_F(DegradedServingTest, RestoresIndexesFromCleanSnapshot) {
  const std::string dir = TestDir("restore");
  store::SnapshotStore store(dir);
  CommitIndexes(&store);
  auto opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok());

  size_t loaded = 0, rebuilt = 0;
  std::unique_ptr<DiscoveryEngine> engine = DiscoveryEngine::Restore(
      &lake_->catalog, &lake_->kb, EngineOptions(), opened->reader, &loaded,
      &rebuilt);
  EXPECT_EQ(loaded, 2u);
  EXPECT_EQ(rebuilt, 0u);
  // The restored engine answers exactly like the engine that built the
  // indexes from scratch.
  ExpectAnswersLikeWriter(*engine);
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

  // Restore still loads every index from the surviving generation.
  auto opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->generation, gen1);

  size_t loaded = 0, rebuilt = 0;
  std::unique_ptr<DiscoveryEngine> engine = DiscoveryEngine::Restore(
      &lake_->catalog, &lake_->kb, EngineOptions(), opened->reader, &loaded,
      &rebuilt);
  EXPECT_EQ(loaded, 2u);
  EXPECT_EQ(rebuilt, 0u);
  ExpectAnswersLikeWriter(*engine);
}

TEST_F(DegradedServingTest, CorruptIndexSectionRebuildsEveryIndexOnRecover) {
  const std::string dir = TestDir("rebuild");
  store::SnapshotStore store(dir);
  store::SnapshotWriter snapshot;
  ASSERT_TRUE(lake_->catalog.SaveSnapshot(&snapshot).ok());
  ASSERT_TRUE(writer_engine_->SaveIndexSections(&snapshot).ok());
  auto gen = store.Commit(snapshot);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  // Corrupt the JOSIE section in the only committed generation. The
  // Starmie section still reads, but all or nothing: both are rebuilt.
  CorruptSection(dir, *gen, DiscoveryEngine::kJosieSection);

  ingest::LiveEngine::Options opts;
  opts.base_options = EngineOptions();
  opts.kb = &lake_->kb;
  ingest::LiveEngine::RecoveryReport report;
  auto live = ingest::LiveEngine::Recover(&store, opts, &report);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(report.tables_loaded, lake_->catalog.num_tables());
  EXPECT_EQ(report.index_sections_loaded, 0u);
  EXPECT_EQ(report.index_sections_rebuilt, 2u);

  // The rebuilt base answers exactly like a cold build over the tables.
  ExpectAnswersLikeWriter((*live)->Acquire()->base());
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
