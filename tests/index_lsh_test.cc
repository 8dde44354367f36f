#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "index/lsh_ensemble.h"
#include "index/minhash_lsh.h"
#include "sketch/set_ops.h"
#include "util/random.h"

namespace lake {
namespace {

std::vector<std::string> Values(size_t begin, size_t end) {
  std::vector<std::string> out;
  for (size_t i = begin; i < end; ++i) out.push_back("v" + std::to_string(i));
  return out;
}

// --- S-curve math ------------------------------------------------------

TEST(LshMathTest, CollisionProbabilityShape) {
  // More bands raise collision probability; more rows lower it.
  EXPECT_GT(LshCollisionProbability(0.5, 32, 4),
            LshCollisionProbability(0.5, 8, 4));
  EXPECT_LT(LshCollisionProbability(0.5, 16, 8),
            LshCollisionProbability(0.5, 16, 2));
  // Monotone in similarity.
  EXPECT_LT(LshCollisionProbability(0.2, 16, 4),
            LshCollisionProbability(0.8, 16, 4));
  EXPECT_NEAR(LshCollisionProbability(1.0, 16, 4), 1.0, 1e-12);
  EXPECT_NEAR(LshCollisionProbability(0.0, 16, 4), 0.0, 1e-12);
}

TEST(LshMathTest, OptimalParamsRespectBudget) {
  for (double t : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const LshParams p = OptimalLshParams(128, t);
    EXPECT_GE(p.bands, 1u);
    EXPECT_GE(p.rows, 1u);
    EXPECT_LE(p.bands * p.rows, 128u);
  }
}

TEST(LshMathTest, HigherThresholdMoreRows) {
  const LshParams low = OptimalLshParams(128, 0.2);
  const LshParams high = OptimalLshParams(128, 0.9);
  EXPECT_GT(high.rows, low.rows);
}

// --- MinHash LSH ---------------------------------------------------------

TEST(MinHashLshTest, FindsNearDuplicates) {
  MinHashLsh lsh(128, 0.7);
  // 20 random sets plus one near-duplicate pair.
  for (size_t s = 0; s < 20; ++s) {
    lsh.Insert(s, MinHashSignature::Build(
                      Values(s * 1000, s * 1000 + 200), 128));
  }
  // Query shares ~95% with set 3 (J ≈ 0.95, collision prob ≈ 0.999).
  auto near = Values(3000, 3195);
  auto extra = Values(999000, 999005);
  near.insert(near.end(), extra.begin(), extra.end());
  const auto candidates =
      lsh.Query(MinHashSignature::Build(near, 128)).value();
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 3u),
            candidates.end());
}

TEST(MinHashLshTest, MissesDissimilar) {
  MinHashLsh lsh(128, 0.8);
  for (size_t s = 0; s < 20; ++s) {
    lsh.Insert(s, MinHashSignature::Build(
                      Values(s * 1000, s * 1000 + 200), 128));
  }
  const auto candidates =
      lsh.Query(MinHashSignature::Build(Values(500000, 500200), 128)).value();
  EXPECT_TRUE(candidates.empty());
}

TEST(MinHashLshTest, WidthMismatchError) {
  MinHashLsh lsh(128, 0.5);
  EXPECT_FALSE(lsh.Insert(0, MinHashSignature::Build(Values(0, 10), 64)).ok());
  EXPECT_FALSE(lsh.Query(MinHashSignature::Build(Values(0, 10), 64)).ok());
}

TEST(MinHashLshTest, BucketAccounting) {
  MinHashLsh lsh(64, LshParams{8, 8});
  lsh.Insert(1, MinHashSignature::Build(Values(0, 50), 64));
  EXPECT_EQ(lsh.size(), 1u);
  EXPECT_EQ(lsh.BucketEntries(), 8u);  // one entry per band
}

// --- Containment conversion ------------------------------------------------

TEST(ContainmentToJaccardTest, KnownValues) {
  // t=1, |Q|=u=100: J = 100/(100+100-100) = 1.
  EXPECT_DOUBLE_EQ(ContainmentToJaccard(1.0, 100, 100), 1.0);
  // t=0.5, q=100, u=1000: J = 50/(100+1000-50).
  EXPECT_NEAR(ContainmentToJaccard(0.5, 100, 1000), 50.0 / 1050.0, 1e-12);
  // Larger candidate bound -> smaller equivalent Jaccard.
  EXPECT_GT(ContainmentToJaccard(0.5, 100, 200),
            ContainmentToJaccard(0.5, 100, 2000));
}

// --- LSH Ensemble -----------------------------------------------------------

struct EnsembleFixture {
  LshEnsemble ensemble{LshEnsemble::Options{128, 4}};
  std::vector<std::vector<std::string>> sets;
  std::vector<std::string> query;

  EnsembleFixture() {
    // Skewed cardinalities: sizes 20..5000. Query {0..99} is fully
    // contained in sets 0-2 and disjoint from the rest.
    query = Values(0, 100);
    sets.push_back(Values(0, 120));    // containment 1.0
    sets.push_back(Values(0, 1000));   // containment 1.0, large set
    sets.push_back(Values(50, 5050));  // containment 0.5
    for (size_t s = 0; s < 40; ++s) {
      sets.push_back(Values(100000 + s * 3000, 100000 + s * 3000 + 20 +
                                                    s * 100));
    }
    for (size_t s = 0; s < sets.size(); ++s) {
      EXPECT_TRUE(ensemble
                      .Add(s, MinHashSignature::Build(sets[s], 128),
                           sets[s].size())
                      .ok());
    }
    EXPECT_TRUE(ensemble.Build().ok());
  }
};

TEST(LshEnsembleTest, FindsContainingSetsAcrossCardinalities) {
  EnsembleFixture f;
  const auto candidates =
      f.ensemble
          .Query(MinHashSignature::Build(f.query, 128), f.query.size(), 0.7)
          .value();
  const std::unordered_set<uint64_t> got(candidates.begin(), candidates.end());
  // Both the small and the large fully-containing set must be found, even
  // though their Jaccard with the query differs by an order of magnitude.
  EXPECT_TRUE(got.count(0));
  EXPECT_TRUE(got.count(1));
}

TEST(LshEnsembleTest, ThresholdFiltersPartialContainment) {
  EnsembleFixture f;
  const auto strict =
      f.ensemble
          .Query(MinHashSignature::Build(f.query, 128), f.query.size(), 0.95)
          .value();
  const auto loose =
      f.ensemble
          .Query(MinHashSignature::Build(f.query, 128), f.query.size(), 0.3)
          .value();
  EXPECT_LE(strict.size(), loose.size());
  const std::unordered_set<uint64_t> got(loose.begin(), loose.end());
  EXPECT_TRUE(got.count(2));  // 0.5-containment set appears at loose t
}

TEST(LshEnsembleTest, FewFalsePositives) {
  EnsembleFixture f;
  const auto candidates =
      f.ensemble
          .Query(MinHashSignature::Build(f.query, 128), f.query.size(), 0.7)
          .value();
  // The 40 disjoint filler sets should rarely collide.
  size_t false_positives = 0;
  for (uint64_t c : candidates) {
    if (c >= 3) ++false_positives;
  }
  EXPECT_LE(false_positives, 4u);
}

TEST(LshEnsembleTest, LifecycleErrors) {
  LshEnsemble e(LshEnsemble::Options{64, 2});
  const auto sig = MinHashSignature::Build(Values(0, 10), 64);
  EXPECT_FALSE(e.Query(sig, 10, 0.5).ok());  // not built
  EXPECT_TRUE(e.Add(0, sig, 10).ok());
  EXPECT_TRUE(e.Build().ok());
  EXPECT_FALSE(e.Add(1, sig, 10).ok());   // already built
  EXPECT_FALSE(e.Build().ok());           // double build
  const auto bad = MinHashSignature::Build(Values(0, 10), 32);
  EXPECT_FALSE(e.Query(bad, 10, 0.5).ok());  // width mismatch
}

TEST(LshEnsembleTest, EmptyAndZeroQuery) {
  LshEnsemble e(LshEnsemble::Options{64, 2});
  EXPECT_TRUE(e.Build().ok());
  const auto sig = MinHashSignature::Build(Values(0, 10), 64);
  EXPECT_TRUE(e.Query(sig, 10, 0.5).value().empty());
  LshEnsemble e2(LshEnsemble::Options{64, 2});
  EXPECT_TRUE(e2.Add(0, sig, 10).ok());
  EXPECT_TRUE(e2.Build().ok());
  EXPECT_TRUE(e2.Query(sig, 0, 0.5).value().empty());
}

}  // namespace
}  // namespace lake
