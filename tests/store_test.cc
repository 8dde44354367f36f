#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "store/snapshot.h"
#include "util/crc32c.h"
#include "util/failpoint.h"

namespace lake::store {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lake_store_" + name;
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

class FailpointFixture : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Instance().ClearAll(); }
};

// ----------------------------------------------------------------- crc32c

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / Castagnoli reference vector.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // 32 zero bytes (iSCSI test vector).
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t a = Crc32cExtend(0, data.data(), split);
    const uint32_t b =
        Crc32cExtend(a, data.data() + split, data.size() - split);
    EXPECT_EQ(b, Crc32c(data)) << "split=" << split;
  }
}

TEST(Crc32cTest, SingleBitFlipChangesChecksum) {
  const std::string data = "snapshot payload bytes";
  const uint32_t clean = Crc32c(data);
  for (size_t i = 0; i < data.size(); ++i) {
    std::string corrupt = data;
    corrupt[i] ^= 1;
    EXPECT_NE(Crc32c(corrupt), clean) << "offset " << i;
  }
}

// ------------------------------------------------------------- failpoints

TEST_F(FailpointFixture, FiresOnceOnScheduledHit) {
  auto& registry = FailpointRegistry::Instance();
  registry.Arm("test.fp", FaultSpec{FaultSpec::Kind::kError, /*after_hits=*/2});
  EXPECT_FALSE(registry.Hit("test.fp").has_value());  // hit 1
  EXPECT_FALSE(registry.Hit("test.fp").has_value());  // hit 2
  auto fired = registry.Hit("test.fp");               // hit 3 fires
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->kind, FaultSpec::Kind::kError);
  // One-shot: disarmed after firing.
  EXPECT_FALSE(registry.Hit("test.fp").has_value());
  EXPECT_EQ(registry.hits("test.fp"), 4u);
}

TEST_F(FailpointFixture, ScopedFailpointDisarms) {
  {
    ScopedFailpoint scoped("test.scoped", FaultSpec{});
  }
  EXPECT_FALSE(FailpointHit("test.scoped").has_value());
}

TEST_F(FailpointFixture, TornWriteKeepsPrefixThenKillsSink) {
  ScopedFailpoint scoped(
      "test.torn", FaultSpec{FaultSpec::Kind::kTornWrite, 0, /*arg=*/5});
  std::ostringstream real;
  FaultInjectingOStream out(&real, "test.torn");
  out.write("0123456789", 10);
  EXPECT_FALSE(out.good());
  out.clear();
  out.write("more", 4);  // sink stays dead after the tear
  EXPECT_FALSE(out.good());
  EXPECT_EQ(real.str(), "01234");
}

TEST_F(FailpointFixture, ShortReadTruncatesStream) {
  ScopedFailpoint scoped(
      "test.short", FaultSpec{FaultSpec::Kind::kShortRead, 0, /*arg=*/3});
  std::istringstream real("0123456789");
  FaultInjectingIStream in(&real, "test.short");
  char buf[10] = {};
  in.read(buf, 10);
  EXPECT_EQ(in.gcount(), 3);
  EXPECT_FALSE(in.good());
}

TEST_F(FailpointFixture, BitFlipAtOffset) {
  ScopedFailpoint scoped(
      "test.flip", FaultSpec{FaultSpec::Kind::kBitFlip, 0, /*arg=*/4});
  std::istringstream real("0123456789");
  FaultInjectingIStream in(&real, "test.flip");
  char buf[10] = {};
  in.read(buf, 10);
  EXPECT_EQ(in.gcount(), 10);
  EXPECT_EQ(buf[4], '4' ^ 1);
  EXPECT_EQ(buf[3], '3');
  EXPECT_EQ(buf[5], '5');
}

// --------------------------------------------------------------- envelope

TEST(SnapshotEnvelopeTest, RoundTrip) {
  SnapshotWriter writer;
  writer.AddSection("alpha", "payload one");
  writer.AddSection("beta", std::string(1000, 'x'));
  ASSERT_TRUE(writer
                  .AddSection("gamma",
                              [](BinaryWriter* w) {
                                w->WriteVarint(42);
                                w->WriteString("nested");
                                return Status::OK();
                              })
                  .ok());

  auto reader = SnapshotReader::Parse(writer.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->framing_status().ok());
  ASSERT_EQ(reader->sections().size(), 3u);
  EXPECT_TRUE(reader->has_section("alpha"));
  EXPECT_FALSE(reader->has_section("delta"));

  auto alpha = reader->ReadSection("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(*alpha, "payload one");
  auto beta = reader->ReadSection("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(beta->size(), 1000u);
  auto gamma = reader->ReadSection("gamma");
  ASSERT_TRUE(gamma.ok());
  std::istringstream in(*gamma);
  BinaryReader r(&in);
  EXPECT_EQ(r.ReadVarint().value(), 42u);
  EXPECT_EQ(r.ReadString().value(), "nested");

  EXPECT_EQ(reader->ReadSection("delta").status().code(),
            StatusCode::kNotFound);
}

TEST(SnapshotEnvelopeTest, EmptyEnvelopeRoundTrips) {
  SnapshotWriter writer;
  auto reader = SnapshotReader::Parse(writer.Serialize());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->sections().empty());
}

TEST(SnapshotEnvelopeTest, PayloadCorruptionIsolatedToItsSection) {
  SnapshotWriter writer;
  writer.AddSection("good", "healthy payload");
  writer.AddSection("bad", "doomed payload");
  std::string bytes = writer.Serialize();

  // Flip one bit inside the second payload.
  const size_t pos = bytes.find("doomed");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] ^= 1;

  auto reader = SnapshotReader::Parse(std::move(bytes));
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->framing_status().ok());  // framing is intact
  EXPECT_TRUE(reader->ReadSection("good").ok());
  const auto bad = reader->ReadSection("bad");
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
  EXPECT_NE(bad.status().message().find("checksum"), std::string::npos);
}

TEST(SnapshotEnvelopeTest, FramingCorruptionLeavesEarlierSectionsReadable) {
  SnapshotWriter writer;
  writer.AddSection("first", "first payload");
  writer.AddSection("second", "second payload");
  writer.AddSection("third", "third payload");
  std::string bytes = writer.Serialize();

  // Corrupt the *name* of the second section: its framing CRC must catch
  // the lie, and the walk stops there.
  const size_t pos = bytes.find("second");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] ^= 1;

  auto reader = SnapshotReader::Parse(std::move(bytes));
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->framing_status().ok());
  ASSERT_EQ(reader->sections().size(), 1u);
  EXPECT_TRUE(reader->ReadSection("first").ok());
  EXPECT_FALSE(reader->ReadSection("third").ok());
}

TEST(SnapshotEnvelopeTest, BadMagicRejected) {
  SnapshotWriter writer;
  writer.AddSection("a", "b");
  std::string bytes = writer.Serialize();
  bytes[0] ^= 0xff;
  EXPECT_FALSE(SnapshotReader::Parse(std::move(bytes)).ok());
}

// --------------------------------------------------------- atomic commits

TEST_F(FailpointFixture, AtomicWriteSurvivesProcessView) {
  const std::string dir = TestDir("atomic");
  const std::string path = dir + "/file.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "version one").ok());
  EXPECT_EQ(ReadFileBytes(path), "version one");
  ASSERT_TRUE(AtomicWriteFile(path, "version two").ok());
  EXPECT_EQ(ReadFileBytes(path), "version two");
}

TEST_F(FailpointFixture, TornWriteLeavesOldFileIntact) {
  const std::string dir = TestDir("torn");
  const std::string path = dir + "/file.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "committed").ok());

  ScopedFailpoint scoped(
      "atomic_write.write",
      FaultSpec{FaultSpec::Kind::kTornWrite, 0, /*arg=*/4});
  EXPECT_FALSE(AtomicWriteFile(path, "replacement bytes").ok());
  // The visible file is untouched; only the temp file is torn.
  EXPECT_EQ(ReadFileBytes(path), "committed");
}

TEST_F(FailpointFixture, FsyncAndRenameFailuresKeepOldFile) {
  const std::string dir = TestDir("fsync");
  const std::string path = dir + "/file.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "committed").ok());
  {
    ScopedFailpoint scoped("atomic_write.fsync", FaultSpec{});
    EXPECT_FALSE(AtomicWriteFile(path, "next").ok());
    EXPECT_EQ(ReadFileBytes(path), "committed");
  }
  {
    ScopedFailpoint scoped("atomic_write.rename", FaultSpec{});
    EXPECT_FALSE(AtomicWriteFile(path, "next").ok());
    EXPECT_EQ(ReadFileBytes(path), "committed");
  }
}

// ------------------------------------------------------------------ store

SnapshotWriter MakeSnapshot(const std::string& tag) {
  SnapshotWriter writer;
  writer.AddSection("data", "payload " + tag);
  return writer;
}

TEST(SnapshotStoreTest, CommitAndOpenLatest) {
  SnapshotStore store(TestDir("store_basic"));
  auto gen1 = store.Commit(MakeSnapshot("one"));
  ASSERT_TRUE(gen1.ok()) << gen1.status().ToString();
  EXPECT_EQ(*gen1, 1u);

  auto opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->generation, 1u);
  EXPECT_EQ(opened->reader.ReadSection("data").value(), "payload one");

  auto gen2 = store.Commit(MakeSnapshot("two"));
  ASSERT_TRUE(gen2.ok());
  EXPECT_EQ(*gen2, 2u);
  opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->generation, 2u);
  EXPECT_EQ(opened->reader.ReadSection("data").value(), "payload two");
}

TEST(SnapshotStoreTest, PrunesBeyondKeepGenerations) {
  const std::string dir = TestDir("store_prune");
  SnapshotStore::Options options;
  options.keep_generations = 2;
  SnapshotStore store(dir, options);
  ASSERT_TRUE(store.Commit(MakeSnapshot("one")).ok());
  ASSERT_TRUE(store.Commit(MakeSnapshot("two")).ok());
  ASSERT_TRUE(store.Commit(MakeSnapshot("three")).ok());

  EXPECT_EQ(store.Generations(), (std::vector<uint64_t>{2, 3}));
  EXPECT_FALSE(fs::exists(dir + "/" + SnapshotStore::SnapshotFileName(1)));
  for (uint64_t gen : {2u, 3u}) {
    EXPECT_TRUE(SnapshotReader::OpenFile(
                    dir + "/" + SnapshotStore::SnapshotFileName(gen))
                    .ok())
        << "generation " << gen;
  }
}

TEST(SnapshotStoreTest, MissingManifestFallsBackToDirectoryScan) {
  const std::string dir = TestDir("store_scan");
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Commit(MakeSnapshot("one")).ok());
  ASSERT_TRUE(store.Commit(MakeSnapshot("two")).ok());
  fs::remove(dir + "/MANIFEST");

  auto opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->generation, 2u);
  // And the next commit does not reuse generation numbers.
  auto gen = store.Commit(MakeSnapshot("three"));
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(*gen, 3u);
}

TEST(SnapshotStoreTest, CorruptNewestFallsBackToPreviousGeneration) {
  const std::string dir = TestDir("store_fallback");
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Commit(MakeSnapshot("one")).ok());
  ASSERT_TRUE(store.Commit(MakeSnapshot("two")).ok());

  // Stomp the newest envelope's header so it no longer parses at all.
  const std::string newest = dir + "/" + SnapshotStore::SnapshotFileName(2);
  std::string bytes = ReadFileBytes(newest);
  bytes[0] ^= 0xff;
  WriteFileBytes(newest, bytes);

  auto opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->generation, 1u);
  EXPECT_EQ(opened->reader.ReadSection("data").value(), "payload one");
}

class SnapshotStoreFailpointTest : public FailpointFixture {};

TEST_F(SnapshotStoreFailpointTest, TornEnvelopeWriteKeepsPreviousCurrent) {
  const std::string dir = TestDir("store_torn");
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Commit(MakeSnapshot("one")).ok());

  ScopedFailpoint scoped(
      "store.snap.write", FaultSpec{FaultSpec::Kind::kTornWrite, 0, 8});
  EXPECT_FALSE(store.Commit(MakeSnapshot("two")).ok());

  auto opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->generation, 1u);
  EXPECT_EQ(opened->reader.ReadSection("data").value(), "payload one");
}

TEST_F(SnapshotStoreFailpointTest, ManifestCommitFailureRollsBackEnvelope) {
  const std::string dir = TestDir("store_manifest");
  SnapshotStore store(dir);
  ASSERT_TRUE(store.Commit(MakeSnapshot("one")).ok());

  ScopedFailpoint scoped("store.manifest.rename", FaultSpec{});
  EXPECT_FALSE(store.Commit(MakeSnapshot("two")).ok());

  // The uncommitted generation-2 envelope must not linger: state matches
  // the old MANIFEST.
  EXPECT_FALSE(fs::exists(dir + "/" + SnapshotStore::SnapshotFileName(2)));
  auto opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->generation, 1u);

  // Recovery after the "crash": the next commit succeeds with a fresh
  // generation number.
  auto gen = store.Commit(MakeSnapshot("three"));
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(store.OpenLatest()->reader.ReadSection("data").value(),
            "payload three");
}

}  // namespace
}  // namespace lake::store
