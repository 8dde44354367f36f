#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "index/josie.h"
#include "util/random.h"

namespace lake {
namespace {

std::vector<std::string> Values(size_t begin, size_t end) {
  std::vector<std::string> out;
  for (size_t i = begin; i < end; ++i) out.push_back("v" + std::to_string(i));
  return out;
}

// --- JOSIE ------------------------------------------------------------

TEST(JosieTest, ExactTopKSimple) {
  JosieIndex idx;
  ASSERT_TRUE(idx.AddSet(0, Values(0, 100)).ok());   // overlap 50
  ASSERT_TRUE(idx.AddSet(1, Values(40, 90)).ok());   // overlap 50 (all)
  ASSERT_TRUE(idx.AddSet(2, Values(45, 55)).ok());   // overlap 10
  ASSERT_TRUE(idx.AddSet(3, Values(500, 600)).ok()); // overlap 0
  ASSERT_TRUE(idx.Build().ok());

  const auto hits = idx.TopK(Values(40, 90), 2).value();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].overlap, 50u);
  EXPECT_EQ(hits[1].overlap, 50u);
  // Zero-overlap sets never surface.
  const auto all = idx.TopK(Values(40, 90), 10).value();
  for (const auto& h : all) EXPECT_NE(h.id, 3u);
}

TEST(JosieTest, LifecycleErrors) {
  JosieIndex idx;
  ASSERT_TRUE(idx.AddSet(0, Values(0, 5)).ok());
  EXPECT_FALSE(idx.TopK(Values(0, 5), 1).ok());  // not built
  ASSERT_TRUE(idx.Build().ok());
  EXPECT_FALSE(idx.AddSet(1, Values(0, 5)).ok());  // already built
  EXPECT_FALSE(idx.Build().ok());
}

TEST(JosieTest, EmptyAndUnseenQueries) {
  JosieIndex idx;
  ASSERT_TRUE(idx.AddSet(0, Values(0, 5)).ok());
  ASSERT_TRUE(idx.Build().ok());
  EXPECT_TRUE(idx.TopK({}, 3).value().empty());
  EXPECT_TRUE(idx.TopK(Values(1000, 1010), 3).value().empty());
  EXPECT_TRUE(idx.TopK(Values(0, 5), 0).value().empty());
}

TEST(JosieTest, NormalizationApplied) {
  JosieIndex idx;
  ASSERT_TRUE(idx.AddSet(0, {"  Apple ", "BANANA"}).ok());
  ASSERT_TRUE(idx.Build().ok());
  const auto hits = idx.TopK({"apple", "banana"}, 1).value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].overlap, 2u);
}

TEST(JosieTest, StatsShowPruning) {
  JosieIndex idx;
  // One dominant set and many sets sharing only a few common tokens.
  ASSERT_TRUE(idx.AddSet(0, Values(0, 200)).ok());
  for (size_t s = 1; s <= 60; ++s) {
    auto set = Values(0, 3);  // 3 very frequent tokens
    auto rare = Values(10000 + s * 100, 10000 + s * 100 + 50);
    set.insert(set.end(), rare.begin(), rare.end());
    ASSERT_TRUE(idx.AddSet(s, set).ok());
  }
  ASSERT_TRUE(idx.Build().ok());
  JosieIndex::QueryStats stats;
  const auto hits = idx.TopK(Values(0, 200), 1, &stats).value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_EQ(hits[0].overlap, 200u);
  // The rare-first order defers the frequent tokens; with k=1 the scan
  // should terminate before reading every list.
  EXPECT_LT(stats.lists_read, 200u);
}

TEST(JosieSerializationTest, SaveLoadRoundTrip) {
  JosieIndex idx;
  ASSERT_TRUE(idx.AddSet(10, Values(0, 100)).ok());
  ASSERT_TRUE(idx.AddSet(20, Values(40, 90)).ok());
  ASSERT_TRUE(idx.AddSet(30, Values(500, 600)).ok());
  ASSERT_TRUE(idx.Build().ok());

  std::stringstream buffer;
  ASSERT_TRUE(idx.Save(&buffer).ok());

  JosieIndex loaded;
  ASSERT_TRUE(loaded.Load(&buffer).ok());
  EXPECT_TRUE(loaded.built());
  EXPECT_EQ(loaded.num_sets(), idx.num_sets());
  EXPECT_EQ(loaded.vocabulary_size(), idx.vocabulary_size());

  const auto a = idx.TopK(Values(40, 90), 3).value();
  const auto b = loaded.TopK(Values(40, 90), 3).value();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].overlap, b[i].overlap);
  }
}

TEST(JosieSerializationTest, Errors) {
  JosieIndex unbuilt;
  ASSERT_TRUE(unbuilt.AddSet(0, Values(0, 5)).ok());
  std::stringstream buffer;
  EXPECT_FALSE(unbuilt.Save(&buffer).ok());  // must be built

  std::stringstream garbage("not an index");
  JosieIndex target;
  EXPECT_FALSE(target.Load(&garbage).ok());

  // Truncated stream.
  JosieIndex idx;
  ASSERT_TRUE(idx.AddSet(0, Values(0, 50)).ok());
  ASSERT_TRUE(idx.Build().ok());
  std::stringstream full;
  ASSERT_TRUE(idx.Save(&full).ok());
  const std::string bytes = full.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(target.Load(&truncated).ok());
}

// Property: JOSIE's filtered top-k matches brute force on random inputs
// (exactness is JOSIE's contract — the filters must only save work).
class JosieExactness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JosieExactness, MatchesBruteForce) {
  Rng rng(GetParam());
  JosieIndex idx;
  const size_t num_sets = 60 + rng.NextBounded(60);
  const size_t universe = 500;
  for (size_t s = 0; s < num_sets; ++s) {
    const size_t size = 5 + rng.NextBounded(80);
    std::vector<std::string> set;
    for (size_t i = 0; i < size; ++i) {
      set.push_back("v" + std::to_string(rng.NextBounded(universe)));
    }
    ASSERT_TRUE(idx.AddSet(s, set).ok());
  }
  ASSERT_TRUE(idx.Build().ok());

  for (int q = 0; q < 5; ++q) {
    const size_t qsize = 5 + rng.NextBounded(60);
    std::vector<std::string> query;
    for (size_t i = 0; i < qsize; ++i) {
      query.push_back("v" + std::to_string(rng.NextBounded(universe)));
    }
    const size_t k = 1 + rng.NextBounded(10);
    const auto fast = idx.TopK(query, k).value();
    const auto slow = idx.TopKBruteForce(query, k).value();
    ASSERT_EQ(fast.size(), slow.size());
    // Overlap multiset must match exactly (ids may permute within ties).
    std::vector<uint32_t> fo, so;
    for (const auto& h : fast) fo.push_back(h.overlap);
    for (const auto& h : slow) so.push_back(h.overlap);
    EXPECT_EQ(fo, so);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JosieExactness,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace lake
