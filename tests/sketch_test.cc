#include <gtest/gtest.h>

#include <cmath>

#include "sketch/correlation_sketch.h"
#include "sketch/hll.h"
#include "sketch/kmv.h"
#include "sketch/minhash.h"
#include "sketch/set_ops.h"
#include "util/hash.h"
#include "util/random.h"

namespace lake {
namespace {

std::vector<std::string> Values(size_t begin, size_t end) {
  std::vector<std::string> out;
  out.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) out.push_back("v" + std::to_string(i));
  return out;
}

// --- HashedSet (exact ground truth) ----------------------------------------

TEST(HashedSetTest, ExactJaccardAndContainment) {
  // A = {0..99}, B = {50..199}: |A∩B|=50, |A∪B|=200.
  const HashedSet a = HashedSet::FromValues(Values(0, 100));
  const HashedSet b = HashedSet::FromValues(Values(50, 200));
  EXPECT_EQ(a.IntersectionSize(b), 50u);
  EXPECT_DOUBLE_EQ(a.Jaccard(b), 0.25);
  EXPECT_DOUBLE_EQ(a.ContainmentIn(b), 0.5);
  EXPECT_DOUBLE_EQ(b.ContainmentIn(a), 50.0 / 150.0);
}

TEST(HashedSetTest, Duplicates) {
  const HashedSet a = HashedSet::FromValues({"x", "x", "y"});
  EXPECT_EQ(a.size(), 2u);
}

TEST(HashedSetTest, EmptyEdgeCases) {
  const HashedSet e;
  const HashedSet a = HashedSet::FromValues({"x"});
  EXPECT_DOUBLE_EQ(e.Jaccard(e), 1.0);
  EXPECT_DOUBLE_EQ(e.Jaccard(a), 0.0);
  EXPECT_DOUBLE_EQ(e.ContainmentIn(a), 0.0);
}

// --- MinHash ---------------------------------------------------------------

TEST(MinHashTest, IdenticalSetsEstimateOne) {
  const auto a = MinHashSignature::Build(Values(0, 200), 128);
  const auto b = MinHashSignature::Build(Values(0, 200), 128);
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b).value(), 1.0);
}

TEST(MinHashTest, DisjointSetsEstimateNearZero) {
  const auto a = MinHashSignature::Build(Values(0, 200), 128);
  const auto b = MinHashSignature::Build(Values(1000, 1200), 128);
  EXPECT_LT(a.EstimateJaccard(b).value(), 0.05);
}

TEST(MinHashTest, WidthMismatchIsError) {
  const auto a = MinHashSignature::Build(Values(0, 10), 64);
  const auto b = MinHashSignature::Build(Values(0, 10), 128);
  EXPECT_FALSE(a.EstimateJaccard(b).ok());
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(MinHashTest, MergeEqualsUnionSignature) {
  const auto a = MinHashSignature::Build(Values(0, 100), 64);
  const auto b = MinHashSignature::Build(Values(100, 200), 64);
  const auto u = MinHashSignature::Build(Values(0, 200), 64);
  const auto merged = a.Merge(b).value();
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(merged.value(i), u.value(i));
  }
}

// Property: estimation error shrinks with signature width (~1/sqrt(k)).
class MinHashAccuracy : public ::testing::TestWithParam<size_t> {};

TEST_P(MinHashAccuracy, EstimatesWithinTolerance) {
  const size_t width = GetParam();
  // True Jaccard 1/3: A={0..200}, B={100..300}.
  const auto a = MinHashSignature::Build(Values(0, 200), width);
  const auto b = MinHashSignature::Build(Values(100, 300), width);
  const double est = a.EstimateJaccard(b).value();
  const double tol = 4.0 / std::sqrt(static_cast<double>(width));
  EXPECT_NEAR(est, 1.0 / 3.0, tol);
}

INSTANTIATE_TEST_SUITE_P(Widths, MinHashAccuracy,
                         ::testing::Values(32, 64, 128, 256, 512));

TEST(MinHashTest, ContainmentEstimateReasonable) {
  // containment(A in B) = 0.5 with |A|=100, |B|=150.
  const auto a = MinHashSignature::Build(Values(0, 100), 256);
  const auto b = MinHashSignature::Build(Values(50, 200), 256);
  EXPECT_NEAR(a.EstimateContainment(b, 100, 150).value(), 0.5, 0.15);
}

// --- KMV --------------------------------------------------------------------

TEST(KmvTest, ExactWhenUndersaturated) {
  const KmvSketch s = KmvSketch::Build(Values(0, 50), 128);
  EXPECT_TRUE(s.IsExact());
  EXPECT_DOUBLE_EQ(s.EstimateDistinct(), 50.0);
}

TEST(KmvTest, DistinctEstimateAccuracy) {
  const KmvSketch s = KmvSketch::Build(Values(0, 10000), 256);
  EXPECT_FALSE(s.IsExact());
  EXPECT_NEAR(s.EstimateDistinct(), 10000.0, 10000.0 * 0.2);
}

TEST(KmvTest, DuplicatesIgnored) {
  KmvSketch s(16);
  for (int i = 0; i < 100; ++i) s.Update(42);
  EXPECT_EQ(s.size(), 1u);
}

TEST(KmvTest, JaccardEstimate) {
  const KmvSketch a = KmvSketch::Build(Values(0, 2000), 256);
  const KmvSketch b = KmvSketch::Build(Values(1000, 3000), 256);
  // True J = 1000/3000.
  EXPECT_NEAR(a.EstimateJaccard(b).value(), 1.0 / 3.0, 0.12);
}

TEST(KmvTest, ContainmentEstimate) {
  const KmvSketch a = KmvSketch::Build(Values(0, 1000), 256);
  const KmvSketch b = KmvSketch::Build(Values(0, 4000), 256);
  EXPECT_NEAR(a.EstimateContainment(b).value(), 1.0, 0.15);
}

TEST(KmvTest, MergeSizeMismatchError) {
  KmvSketch a(16), b(32);
  EXPECT_FALSE(a.Merge(b).ok());
  EXPECT_FALSE(a.EstimateJaccard(b).ok());
}

// --- HLL --------------------------------------------------------------------

class HllAccuracy : public ::testing::TestWithParam<size_t> {};

TEST_P(HllAccuracy, ErrorWithinBound) {
  const size_t n = GetParam();
  const HllSketch s = HllSketch::Build(Values(0, n), 12);
  // Standard error ~1.04/sqrt(4096) ≈ 1.6%; allow 5 sigma.
  EXPECT_NEAR(s.Estimate(), static_cast<double>(n),
              std::max(5.0, 0.082 * static_cast<double>(n)));
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, HllAccuracy,
                         ::testing::Values(10, 100, 1000, 10000, 100000));

TEST(HllTest, MergeEqualsUnion) {
  const HllSketch a = HllSketch::Build(Values(0, 5000), 12);
  const HllSketch b = HllSketch::Build(Values(2500, 7500), 12);
  const HllSketch u = a.Merge(b).value();
  EXPECT_NEAR(u.Estimate(), 7500.0, 7500.0 * 0.1);
}

TEST(HllTest, PrecisionMismatchError) {
  HllSketch a(10), b(12);
  EXPECT_FALSE(a.Merge(b).ok());
}

// --- Correlation sketch -----------------------------------------------------

TEST(PearsonTest, ExactCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y).value(), 1.0, 1e-12);
  const std::vector<double> ny = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, ny).value(), -1.0, 1e-12);
}

TEST(PearsonTest, Errors) {
  EXPECT_FALSE(PearsonCorrelation({1}, {1}).ok());
  EXPECT_FALSE(PearsonCorrelation({1, 2}, {1}).ok());
  EXPECT_FALSE(PearsonCorrelation({1, 1, 1}, {1, 2, 3}).ok());  // zero var
}

std::pair<CorrelationSketch, CorrelationSketch> MakeCorrelatedPair(
    double rho, size_t rows, size_t sketch_size, uint64_t seed) {
  Rng rng(seed);
  CorrelationSketch a(sketch_size), b(sketch_size);
  for (size_t i = 0; i < rows; ++i) {
    const double x = rng.NextGaussian();
    const double y =
        rho * x + std::sqrt(std::max(0.0, 1 - rho * rho)) * rng.NextGaussian();
    const uint64_t key = Hash64("k" + std::to_string(i));
    a.Update(key, x);
    b.Update(key, y);
  }
  return {std::move(a), std::move(b)};
}

TEST(CorrelationSketchTest, PearsonEstimateNearPlanted) {
  const auto [a, b] = MakeCorrelatedPair(0.9, 3000, 256, 42);
  EXPECT_NEAR(a.EstimatePearson(b).value(), 0.9, 0.12);
}

TEST(CorrelationSketchTest, QcrSignAgreesWithPlanted) {
  const auto [pos_a, pos_b] = MakeCorrelatedPair(0.8, 3000, 256, 1);
  EXPECT_GT(pos_a.EstimateQcr(pos_b).value(), 0.3);
  const auto [neg_a, neg_b] = MakeCorrelatedPair(-0.8, 3000, 256, 2);
  EXPECT_LT(neg_a.EstimateQcr(neg_b).value(), -0.3);
  const auto [z_a, z_b] = MakeCorrelatedPair(0.0, 3000, 256, 3);
  EXPECT_NEAR(z_a.EstimateQcr(z_b).value(), 0.0, 0.25);
}

TEST(CorrelationSketchTest, JoinSampleRequiresSharedKeys) {
  CorrelationSketch a(64), b(64);
  a.Update(Hash64("x"), 1.0);
  b.Update(Hash64("y"), 2.0);
  EXPECT_EQ(a.JoinSampleSize(b), 0u);
  EXPECT_FALSE(a.EstimatePearson(b).ok());
}

TEST(CorrelationSketchTest, KeyContainmentEstimate) {
  CorrelationSketch a(512), b(512);
  // a's keys are a subset of b's keys.
  for (int i = 0; i < 300; ++i) {
    const uint64_t key = Hash64("k" + std::to_string(i));
    a.Update(key, i);
  }
  for (int i = 0; i < 900; ++i) {
    const uint64_t key = Hash64("k" + std::to_string(i));
    b.Update(key, i);
  }
  EXPECT_NEAR(a.EstimateKeyContainment(b), 1.0, 0.1);
  EXPECT_LT(b.EstimateKeyContainment(a), 0.7);
}

TEST(CorrelationSketchTest, BottomKKeepsSmallestKeys) {
  CorrelationSketch s(4);
  for (uint64_t k = 10; k > 0; --k) s.Update(k, 1.0);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.entries()[0].key_hash, 1u);
  EXPECT_EQ(s.entries()[3].key_hash, 4u);
}

TEST(CorrelationSketchTest, DuplicateKeysKeepFirstValue) {
  CorrelationSketch s(8);
  s.Update(5, 1.0);
  s.Update(5, 99.0);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.entries()[0].value, 1.0);
}

}  // namespace
}  // namespace lake
