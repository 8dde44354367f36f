#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "embed/word_embedding.h"
#include "index/flat_vector_index.h"
#include "index/hnsw.h"
#include "index/hyperplane_lsh.h"
#include "index/vector_ops.h"
#include "util/random.h"
#include "util/serialize.h"

namespace lake {
namespace {

Vector RandomVector(Rng& rng, size_t dim) {
  Vector v(dim);
  for (float& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

// --- vector ops -------------------------------------------------------

TEST(VectorOpsTest, DotAndNorm) {
  const Vector a = {1, 2, 3};
  const Vector b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(Norm(a), std::sqrt(14.0));
  EXPECT_DOUBLE_EQ(L2DistanceSquared(a, b), 27.0);
}

TEST(VectorOpsTest, CosineBoundsAndZero) {
  const Vector a = {1, 0};
  const Vector b = {0, 1};
  const Vector z = {0, 0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, z), 0.0);
}

TEST(VectorOpsTest, NormalizeInPlace) {
  Vector a = {3, 4};
  NormalizeInPlace(a);
  EXPECT_NEAR(Norm(a), 1.0, 1e-6);
  Vector z = {0, 0};
  NormalizeInPlace(z);  // must not produce NaN
  EXPECT_DOUBLE_EQ(z[0], 0.0);
}

// --- Flat index --------------------------------------------------------

TEST(FlatIndexTest, ExactNearestByCosine) {
  FlatVectorIndex idx(3);
  ASSERT_TRUE(idx.Insert(1, {1, 0, 0}).ok());
  ASSERT_TRUE(idx.Insert(2, {0, 1, 0}).ok());
  ASSERT_TRUE(idx.Insert(3, {0.9f, 0.1f, 0}).ok());
  const auto hits = idx.Search({1, 0, 0}, 2).value();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_EQ(hits[1].id, 3u);
  EXPECT_NEAR(hits[0].score, 1.0, 1e-6);
}

TEST(FlatIndexTest, L2Metric) {
  FlatVectorIndex idx(2, VectorMetric::kL2);
  ASSERT_TRUE(idx.Insert(1, {0, 0}).ok());
  ASSERT_TRUE(idx.Insert(2, {5, 5}).ok());
  const auto hits = idx.Search({1, 1}, 1).value();
  EXPECT_EQ(hits[0].id, 1u);
}

TEST(FlatIndexTest, DimMismatchErrors) {
  FlatVectorIndex idx(4);
  EXPECT_FALSE(idx.Insert(1, {1, 2}).ok());
  EXPECT_FALSE(idx.Search({1, 2}, 1).ok());
}

// --- HNSW ---------------------------------------------------------------

TEST(HnswTest, EmptyAndTrivial) {
  HnswIndex idx(HnswIndex::Options{.dim = 8});
  EXPECT_TRUE(idx.Search(Vector(8, 0.5f), 3).value().empty());
  ASSERT_TRUE(idx.Insert(7, Vector(8, 0.5f)).ok());
  const auto hits = idx.Search(Vector(8, 0.5f), 3).value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 7u);
}

TEST(HnswTest, DimMismatchErrors) {
  HnswIndex idx(HnswIndex::Options{.dim = 8});
  EXPECT_FALSE(idx.Insert(0, Vector(4, 1.0f)).ok());
  EXPECT_FALSE(idx.Search(Vector(4, 1.0f), 1).ok());
}

TEST(HnswTest, RecallAgainstExact) {
  const size_t dim = 24, n = 600, k = 10;
  Rng rng(99);
  HnswIndex hnsw(HnswIndex::Options{dim, VectorMetric::kCosine, 16, 120, 7});
  FlatVectorIndex flat(dim);
  std::vector<Vector> data;
  for (size_t i = 0; i < n; ++i) {
    Vector v = RandomVector(rng, dim);
    ASSERT_TRUE(hnsw.Insert(i, v).ok());
    ASSERT_TRUE(flat.Insert(i, v).ok());
    data.push_back(std::move(v));
  }
  double recall_sum = 0;
  const int queries = 20;
  for (int q = 0; q < queries; ++q) {
    const Vector query = RandomVector(rng, dim);
    const auto approx = hnsw.Search(query, k, /*ef_search=*/80).value();
    const auto exact = flat.Search(query, k).value();
    std::unordered_set<uint64_t> truth;
    for (const auto& h : exact) truth.insert(h.id);
    size_t found = 0;
    for (const auto& h : approx) {
      if (truth.count(h.id)) ++found;
    }
    recall_sum += static_cast<double>(found) / k;
  }
  EXPECT_GT(recall_sum / queries, 0.85);
}

TEST(HnswTest, ScoresDescending) {
  Rng rng(5);
  HnswIndex idx(HnswIndex::Options{.dim = 16});
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(idx.Insert(i, RandomVector(rng, 16)).ok());
  }
  const auto hits = idx.Search(RandomVector(rng, 16), 10).value();
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i].score, hits[i - 1].score);
  }
}

TEST(HnswTest, DeterministicForSeed) {
  auto build = [] {
    Rng rng(31);
    HnswIndex idx(HnswIndex::Options{16, VectorMetric::kCosine, 8, 60, 3});
    for (size_t i = 0; i < 200; ++i) {
      EXPECT_TRUE(idx.Insert(i, RandomVector(rng, 16)).ok());
    }
    Rng qrng(77);
    return idx.Search(RandomVector(qrng, 16), 5).value();
  };
  const auto a = build();
  const auto b = build();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
}

TEST(HnswTest, L2MetricWorks) {
  HnswIndex idx(HnswIndex::Options{.dim = 2, .metric = VectorMetric::kL2});
  ASSERT_TRUE(idx.Insert(1, {0, 0}).ok());
  ASSERT_TRUE(idx.Insert(2, {10, 10}).ok());
  ASSERT_TRUE(idx.Insert(3, {1, 1}).ok());
  const auto hits = idx.Search({0.4f, 0.4f}, 2).value();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_EQ(hits[1].id, 3u);
}

TEST(HnswTest, LinkBudgetRespected) {
  Rng rng(8);
  const size_t m = 6;
  HnswIndex idx(HnswIndex::Options{8, VectorMetric::kCosine, m, 40, 1});
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(idx.Insert(i, RandomVector(rng, 8)).ok());
  }
  // Total directed links bounded by nodes * 2m (layer 0) + upper layers.
  EXPECT_LT(idx.TotalLinks(), 300 * (2 * m + 2 * m));
  EXPECT_GE(idx.max_level(), 0);
}

TEST(HnswSerializationTest, SaveLoadPreservesSearch) {
  Rng rng(12);
  HnswIndex idx(HnswIndex::Options{16, VectorMetric::kCosine, 8, 60, 3});
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(idx.Insert(i, RandomVector(rng, 16)).ok());
  }
  std::stringstream buffer;
  ASSERT_TRUE(idx.Save(&buffer).ok());

  HnswIndex loaded(HnswIndex::Options{.dim = 4});  // replaced by Load
  ASSERT_TRUE(loaded.Load(&buffer).ok());
  EXPECT_EQ(loaded.size(), idx.size());
  EXPECT_EQ(loaded.TotalLinks(), idx.TotalLinks());
  EXPECT_EQ(loaded.max_level(), idx.max_level());

  Rng qrng(55);
  for (int q = 0; q < 5; ++q) {
    const Vector query = RandomVector(qrng, 16);
    const auto a = idx.Search(query, 5).value();
    const auto b = loaded.Search(query, 5).value();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
  }
  // The loaded index accepts further inserts.
  ASSERT_TRUE(loaded.Insert(999, RandomVector(qrng, 16)).ok());
  EXPECT_EQ(loaded.size(), 301u);
}

TEST(HnswSerializationTest, RejectsGarbageAndTruncation) {
  std::stringstream garbage("nope");
  HnswIndex target(HnswIndex::Options{.dim = 8});
  EXPECT_FALSE(target.Load(&garbage).ok());

  Rng rng(9);
  HnswIndex idx(HnswIndex::Options{.dim = 8});
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(idx.Insert(i, RandomVector(rng, 8)).ok());
  }
  std::stringstream full;
  ASSERT_TRUE(idx.Save(&full).ok());
  const std::string bytes = full.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 3));
  EXPECT_FALSE(target.Load(&truncated).ok());
}

// Two nodes in Save's format: node 0, the entry point, with `entry_layers`
// layers and node 1 with `other_layers`; each links to the other on every
// layer it has.
std::string TwoNodeGraph(uint64_t levels, uint64_t entry_layers,
                         uint64_t other_layers) {
  std::stringstream out;
  BinaryWriter w(&out);
  w.WriteVarint(0x31484b4c);                         // magic
  for (uint64_t v : {2, 0, 2, 2}) w.WriteVarint(v);  // dim metric m ef_c
  w.WriteFixed64(1);                                 // seed
  w.WriteVarint(levels);
  w.WriteVarint(0);  // entry point
  w.WriteVarint(2);  // nodes
  const uint64_t layers[2] = {entry_layers, other_layers};
  for (uint32_t n = 0; n < 2; ++n) {
    w.WriteFixed64(10 + n);
    w.WriteFloatVector(n == 0 ? Vector{1, 0} : Vector{0, 1});
    w.WriteVarint(layers[n]);
    for (uint64_t l = 0; l < layers[n]; ++l) w.WriteU32Vector({1 - n});
  }
  return out.str();
}

TEST(HnswSerializationTest, RejectsLayersSearchWouldReadPastTheEnd) {
  HnswIndex target(HnswIndex::Options{.dim = 2});
  std::stringstream consistent(TwoNodeGraph(2, 2, 2));
  ASSERT_TRUE(target.Load(&consistent).ok());
  EXPECT_EQ(target.Search(Vector{0, 1}, 1).value()[0].id, 11u);

  // The entry point lacks the top layers Search starts from.
  std::stringstream short_entry(TwoNodeGraph(3, 1, 1));
  EXPECT_FALSE(target.Load(&short_entry).ok());
  // A layer-1 link reaches a node that has layer 0 only.
  std::stringstream below(TwoNodeGraph(2, 2, 1));
  EXPECT_FALSE(target.Load(&below).ok());
}

// --- HNSW on clustered near-duplicates -----------------------------------

// Lake-like values: clusters of strings built on one stem ("kelovania",
// "kelovania7", "kelovanix", "kelovania north"), so their hash embeddings
// share most n-grams and sit close together, with a few exact repeats.
std::vector<std::string> ClusteredValues(size_t clusters, size_t per_cluster,
                                         uint64_t seed) {
  Rng rng(seed);
  auto word = [&rng](size_t len) {
    std::string w;
    for (size_t i = 0; i < len; ++i) {
      w.push_back(static_cast<char>('a' + rng.NextBounded(26)));
    }
    return w;
  };
  std::vector<std::string> out;
  for (size_t c = 0; c < clusters; ++c) {
    const std::string stem = word(6 + rng.NextBounded(4));
    for (size_t j = 0; j < per_cluster; ++j) {
      switch (rng.NextBounded(4)) {
        case 0:
          out.push_back(stem + std::to_string(j));
          break;
        case 1: {
          std::string v = stem;
          v[rng.NextBounded(v.size())] = static_cast<char>('a' + j % 26);
          out.push_back(v);
          break;
        }
        case 2:
          out.push_back(stem + " " + word(5));
          break;
        default:
          out.push_back(stem);  // an exact repeat
      }
    }
  }
  return out;
}

// PEXESO's value-index settings.
HnswIndex::Options PexesoOptions(size_t dim) {
  return HnswIndex::Options{dim, VectorMetric::kCosine, 16, 100, 99};
}

struct Layer0 {
  uint32_t entry = 0;
  std::vector<std::vector<uint32_t>> links;
};

// Reads the entry point and the layer-0 links back from Save's format, so
// the test inspects the graph without a test-only accessor.
Layer0 ReadLayer0(const HnswIndex& idx) {
  std::stringstream buffer;
  EXPECT_TRUE(idx.Save(&buffer).ok());
  BinaryReader r(&buffer);
  for (int i = 0; i < 5; ++i) r.ReadVarint().value();  // magic .. ef_c
  r.ReadFixed64().value();                               // seed
  r.ReadVarint().value();                                // levels
  Layer0 g;
  g.entry = static_cast<uint32_t>(r.ReadVarint().value());
  const uint64_t count = r.ReadVarint().value();
  for (uint64_t i = 0; i < count; ++i) {
    r.ReadFixed64().value();
    r.ReadFloatVector().value();
    const uint64_t layers = r.ReadVarint().value();
    for (uint64_t l = 0; l < layers; ++l) {
      std::vector<uint32_t> links = r.ReadU32Vector().value();
      if (l == 0) g.links.push_back(std::move(links));
    }
  }
  return g;
}

class HnswClusteredTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const WordEmbedding words;
    const std::vector<std::string> values = ClusteredValues(60, 30, 21);
    for (const std::string& v : values) data_.push_back(words.EmbedText(v));
    // Queries near the data (fuzzy variants of lake values, as PEXESO
    // sends) and queries from unrelated stems.
    for (size_t i = 0; i < values.size(); i += 18) {
      queries_.push_back(words.EmbedText(values[i] + "s"));
    }
    for (const std::string& v : ClusteredValues(20, 5, 22)) {
      queries_.push_back(words.EmbedText(v));
    }
  }

  std::vector<Vector> data_;
  std::vector<Vector> queries_;
};

TEST_F(HnswClusteredTest, EveryNodeReachableOnLayerZero) {
  HnswIndex idx(PexesoOptions(data_[0].size()));
  for (size_t i = 0; i < data_.size(); ++i) {
    ASSERT_TRUE(idx.Insert(i, data_[i]).ok());
  }
  const Layer0 g = ReadLayer0(idx);
  ASSERT_EQ(g.links.size(), data_.size());
  std::vector<bool> seen(g.links.size(), false);
  std::vector<uint32_t> stack = {g.entry};
  seen[g.entry] = true;
  size_t reached = 1;
  while (!stack.empty()) {
    const uint32_t node = stack.back();
    stack.pop_back();
    for (uint32_t nb : g.links[node]) {
      if (seen[nb]) continue;
      seen[nb] = true;
      ++reached;
      stack.push_back(nb);
    }
  }
  EXPECT_EQ(reached, data_.size());
}

TEST_F(HnswClusteredTest, RecallAtPexesoSettingsAndFewerLinks) {
  const size_t k = 10;
  HnswIndex hnsw(PexesoOptions(data_[0].size()));
  FlatVectorIndex flat(data_[0].size());
  for (size_t i = 0; i < data_.size(); ++i) {
    ASSERT_TRUE(hnsw.Insert(i, data_[i]).ok());
    ASSERT_TRUE(flat.Insert(i, data_[i]).ok());
  }
  // Tie-aware: exact repeats tie on score, so a hit counts when its score
  // reaches the exact k-th score.
  double recall_sum = 0;
  for (const Vector& q : queries_) {
    const auto approx = hnsw.Search(q, k, /*ef_search=*/64).value();
    const auto exact = flat.Search(q, k).value();
    ASSERT_EQ(exact.size(), k);
    size_t found = 0;
    for (const auto& h : approx) {
      if (h.score >= exact.back().score - 1e-6) ++found;
    }
    recall_sum += static_cast<double>(found) / k;
  }
  EXPECT_GE(recall_sum / queries_.size(), 0.95);
  // A build that refills pruned links up to the cap makes 60124 links on
  // this data; without the refill a node keeps only its diverse links.
  EXPECT_LE(hnsw.TotalLinks(), 60124u);
}

std::vector<std::vector<uint64_t>> SearchAll(const HnswIndex& idx,
                                             const std::vector<Vector>& qs) {
  std::vector<std::vector<uint64_t>> out;
  for (const Vector& q : qs) {
    const std::vector<VectorHit> hits = idx.Search(q, 10, 64).value();
    std::vector<uint64_t> ids;
    for (const VectorHit& h : hits) ids.push_back(h.id);
    out.push_back(std::move(ids));
  }
  return out;
}

TEST_F(HnswClusteredTest, ConcurrentSearchMatchesSerial) {
  HnswIndex idx(PexesoOptions(data_[0].size()));
  for (size_t i = 0; i < data_.size(); ++i) {
    ASSERT_TRUE(idx.Insert(i, data_[i]).ok());
  }
  const auto serial = SearchAll(idx, queries_);
  std::vector<std::vector<std::vector<uint64_t>>> got(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) got[t] = SearchAll(idx, queries_);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& g : got) EXPECT_EQ(g, serial);
}

TEST_F(HnswClusteredTest, AlternatingIndexesOnOneThreadMatchSerial) {
  // The visited scratch array is per thread and shared by every index the
  // thread searches; a small index searched after a large one (and back)
  // must see no marks left by the other.
  HnswIndex large(PexesoOptions(data_[0].size()));
  HnswIndex small(PexesoOptions(data_[0].size()));
  for (size_t i = 0; i < data_.size(); ++i) {
    ASSERT_TRUE(large.Insert(i, data_[i]).ok());
    if (i % 13 == 0) {
      ASSERT_TRUE(small.Insert(i, data_[i]).ok());
    }
  }
  const auto want_large = SearchAll(large, queries_);
  const auto want_small = SearchAll(small, queries_);
  std::thread worker([&] {
    for (size_t q = 0; q < queries_.size(); ++q) {
      const std::vector<Vector> one = {queries_[q]};
      EXPECT_EQ(SearchAll(small, one)[0], want_small[q]);
      EXPECT_EQ(SearchAll(large, one)[0], want_large[q]);
      EXPECT_EQ(SearchAll(small, one)[0], want_small[q]);
    }
  });
  worker.join();
}

// --- Hyperplane LSH -----------------------------------------------------

TEST(HyperplaneLshTest, NearDuplicatesCollide) {
  Rng rng(3);
  HyperplaneLsh lsh(HyperplaneLsh::Options{16, 10, 8, 5});
  const Vector base = RandomVector(rng, 16);
  Vector nearby = base;
  nearby[0] += 0.01f;
  ASSERT_TRUE(lsh.Insert(42, base).ok());
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(lsh.Insert(100 + i, RandomVector(rng, 16)).ok());
  }
  const auto candidates = lsh.Query(nearby).value();
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 42u),
            candidates.end());
}

TEST(HyperplaneLshTest, MostRandomVectorsDoNotCollide) {
  Rng rng(4);
  HyperplaneLsh lsh(HyperplaneLsh::Options{32, 4, 16, 6});
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(lsh.Insert(i, RandomVector(rng, 32)).ok());
  }
  const auto candidates = lsh.Query(RandomVector(rng, 32)).value();
  EXPECT_LT(candidates.size(), 30u);
}

TEST(HyperplaneLshTest, DimMismatchErrors) {
  HyperplaneLsh lsh(HyperplaneLsh::Options{16, 2, 4, 1});
  EXPECT_FALSE(lsh.Insert(0, Vector(8, 1.0f)).ok());
  EXPECT_FALSE(lsh.Query(Vector(8, 1.0f)).ok());
}

}  // namespace
}  // namespace lake
