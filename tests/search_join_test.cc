#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "approx/oracle.h"
#include "lakegen/benchmark_lakes.h"
#include "search/join_containment.h"
#include "search/join_correlated.h"
#include "search/join_jaccard.h"
#include "search/join_josie.h"
#include "search/join_mate.h"
#include "search/join_pexeso.h"
#include "util/logging.h"
#include "util/random.h"

namespace lake {
namespace {

Column MakeColumn(const std::string& name,
                  const std::vector<std::string>& vals) {
  Column c(name, DataType::kString);
  for (const auto& v : vals) c.Append(Value(v));
  return c;
}

std::vector<std::string> Values(size_t begin, size_t end,
                                const std::string& prefix = "v") {
  std::vector<std::string> out;
  for (size_t i = begin; i < end; ++i) out.push_back(prefix + std::to_string(i));
  return out;
}

DataLakeCatalog SmallJoinLake() {
  DataLakeCatalog cat;
  auto add = [&cat](const std::string& name,
                    const std::vector<std::string>& vals) {
    Table t(name);
    LAKE_CHECK(t.AddColumn(MakeColumn("key", vals)).ok());
    LAKE_CHECK(cat.AddTable(std::move(t)).ok());
  };
  add("full_overlap", Values(0, 100));        // containment 1.0, J=1.0
  add("superset", Values(0, 1000));           // containment 1.0, J=0.1
  add("half", Values(50, 150));               // containment 0.5
  add("disjoint", Values(5000, 5100));        // containment 0
  return cat;
}

// --- Exact baseline ------------------------------------------------------

TEST(ExactJoinTest, JaccardIsBiasedAgainstLargeSets) {
  DataLakeCatalog cat = SmallJoinLake();
  ExactSetJoinSearch search(&cat);
  const auto query = Values(0, 100);

  const auto by_jaccard = search.TopKByJaccard(query, 4);
  const auto by_containment = search.TopKByContainment(query, 4);
  ASSERT_GE(by_jaccard.size(), 2u);
  ASSERT_GE(by_containment.size(), 2u);

  // Jaccard ranks the exact-duplicate far above the superset...
  EXPECT_EQ(cat.table(by_jaccard[0].column.table_id).name(), "full_overlap");
  EXPECT_NE(cat.table(by_jaccard[1].column.table_id).name(), "superset");
  // ...but containment scores both at 1.0 (the E2 claim).
  std::unordered_set<std::string> top2;
  top2.insert(cat.table(by_containment[0].column.table_id).name());
  top2.insert(cat.table(by_containment[1].column.table_id).name());
  EXPECT_TRUE(top2.count("full_overlap"));
  EXPECT_TRUE(top2.count("superset"));
  EXPECT_DOUBLE_EQ(by_containment[0].score, 1.0);
  EXPECT_DOUBLE_EQ(by_containment[1].score, 1.0);
}

TEST(ExactJoinTest, DisjointNeverReturned) {
  DataLakeCatalog cat = SmallJoinLake();
  ExactSetJoinSearch search(&cat);
  for (const auto& r : search.TopKByContainment(Values(0, 100), 10)) {
    EXPECT_NE(cat.table(r.column.table_id).name(), "disjoint");
  }
}

TEST(ExactJoinTest, NormalizationMatches) {
  DataLakeCatalog cat;
  Table t("t");
  LAKE_CHECK(t.AddColumn(MakeColumn("k", {"  Apple ", "BANANA", "c"})).ok());
  LAKE_CHECK(cat.AddTable(std::move(t)).ok());
  ExactSetJoinSearch search(&cat);
  const auto hits = search.TopKByJaccard({"apple", "banana", "c"}, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_DOUBLE_EQ(hits[0].score, 1.0);
}

// --- LSH Ensemble engine ---------------------------------------------------

TEST(LshEnsembleJoinTest, FindsPlantedContainment) {
  DataLakeCatalog cat = SmallJoinLake();
  LshEnsembleJoinSearch search(&cat);
  const auto results = search.Search(Values(0, 100), 0.7, 5).value();
  ASSERT_GE(results.size(), 2u);
  std::unordered_set<std::string> names;
  for (const auto& r : results) {
    names.insert(cat.table(r.column.table_id).name());
    EXPECT_GE(r.score, 0.7);
  }
  EXPECT_TRUE(names.count("full_overlap"));
  EXPECT_TRUE(names.count("superset"));
  EXPECT_FALSE(names.count("disjoint"));
}

TEST(LshEnsembleJoinTest, CandidatesRecallOnSkewedWorkload) {
  SkewedSetsOptions opts;
  opts.num_sets = 150;
  opts.num_queries = 5;
  const SkewedSetsWorkload w = MakeSkewedSetsWorkload(opts);
  DataLakeCatalog cat;
  for (size_t s = 0; s < w.sets.size(); ++s) {
    Table t("set" + std::to_string(s));
    LAKE_CHECK(t.AddColumn(MakeColumn("values", w.sets[s])).ok());
    LAKE_CHECK(cat.AddTable(std::move(t)).ok());
  }
  LshEnsembleJoinSearch search(&cat);
  const double threshold = 0.6;
  size_t relevant = 0, found = 0;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    // k = every set, and exact re-ranking (store_exact_sets) keeps exactly
    // the candidates at or above the threshold: a relevant set is in the
    // result iff the ensemble proposed it, so this measures its recall.
    const auto hits =
        search.Search(w.queries[q], threshold, w.sets.size()).value();
    std::unordered_set<size_t> hit_tables;
    for (const ColumnResult& hit : hits) hit_tables.insert(hit.column.table_id);
    for (size_t s = 0; s < w.sets.size(); ++s) {
      if (w.containment[q][s] >= threshold) {
        ++relevant;
        // One column per table, so a table id names a set.
        if (hit_tables.count(s)) ++found;
      }
    }
  }
  ASSERT_GT(relevant, 0u);
  EXPECT_GT(static_cast<double>(found) / relevant, 0.7);
}

// --- JOSIE engine ------------------------------------------------------------

TEST(JosieJoinTest, ExactOverlapRanking) {
  DataLakeCatalog cat = SmallJoinLake();
  JosieJoinSearch search(&cat);
  const auto hits = search.Search(Values(0, 100), 3).value();
  ASSERT_GE(hits.size(), 3u);
  EXPECT_DOUBLE_EQ(hits[0].score, 100);  // both full-overlap columns
  EXPECT_DOUBLE_EQ(hits[1].score, 100);
  EXPECT_DOUBLE_EQ(hits[2].score, 50);
}

// --- PEXESO ---------------------------------------------------------------

TEST(PexesoJoinTest, FindsFuzzyVariants) {
  DataLakeCatalog cat;
  Table t1("clean");
  LAKE_CHECK(t1.AddColumn(MakeColumn(
      "country", {"kelovania", "morzania", "tuvaria", "zembalia"})).ok());
  LAKE_CHECK(cat.AddTable(std::move(t1)).ok());
  Table t2("unrelated");
  LAKE_CHECK(t2.AddColumn(MakeColumn(
      "code", {"qx1", "wz9", "pr5", "lm3"})).ok());
  LAKE_CHECK(cat.AddTable(std::move(t2)).ok());

  WordEmbedding words;
  PexesoJoinSearch::Options opts;
  opts.tau = 0.6;
  PexesoJoinSearch search(&cat, &words, opts);
  // Slightly perturbed variants of the clean values.
  const auto hits =
      search.Search({"kelovania", "morzania2", "tuvariaa", "zembalia"}, 2)
          .value();
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(cat.table(hits[0].column.table_id).name(), "clean");
  EXPECT_GT(hits[0].score, 0.5);
}

TEST(PexesoJoinTest, EmptyQuery) {
  DataLakeCatalog cat = SmallJoinLake();
  WordEmbedding words;
  PexesoJoinSearch search(&cat, &words);
  EXPECT_TRUE(search.Search({}, 3).value().empty());
  EXPECT_TRUE(search.Search({"", "  "}, 3).value().empty());
}

TEST(PexesoJoinTest, ValueSharedByMoreColumnsThanNeighborsMatchesAll) {
  // One value held by more columns than the neighbors fetched per query
  // value (24): it is indexed once, so every holder matches.
  DataLakeCatalog cat;
  for (int i = 0; i < 30; ++i) {
    Table t(std::string("t") + std::to_string(i));
    LAKE_CHECK(t.AddColumn(MakeColumn(
        "name", {"kelovania", std::string("filler") + std::to_string(i)}))
                   .ok());
    LAKE_CHECK(cat.AddTable(std::move(t)).ok());
  }
  WordEmbedding words;
  PexesoJoinSearch search(&cat, &words);
  EXPECT_EQ(search.num_indexed_values(), 31u);
  const auto hits = search.Search({"kelovania"}, 40).value();
  EXPECT_EQ(hits.size(), 30u);
  for (const ColumnResult& h : hits) EXPECT_DOUBLE_EQ(h.score, 1.0);
}

TEST(PexesoJoinTest, RecallAgainstBruteForceReference) {
  // A lake shaped like the benchmark's discover_mixed workload (union
  // benchmark options, 36 tables) and join queries drawn as it draws them:
  // 8-40 distinct values of a random string column.
  const GeneratedLake lake = MakeUnionBenchmarkLake(7, 4, 12);
  ASSERT_EQ(lake.catalog.num_tables(), 36u);
  WordEmbedding words;
  const PexesoJoinSearch::Options opts;
  PexesoJoinSearch pexeso(&lake.catalog, &words, opts);
  const approx::DiscoveryOracle oracle(&lake.catalog);
  std::vector<ColumnRef> string_cols;
  lake.catalog.ForEachColumn([&](const ColumnRef& ref, const Column& col) {
    if (!col.IsNumeric()) string_cols.push_back(ref);
  });

  const size_t k = 10;
  const int queries = 24;
  Rng rng(2023);
  double recall_sum = 0;
  for (int q = 0; q < queries; ++q) {
    std::vector<std::string> values =
        lake.catalog.column(string_cols[rng.NextBounded(string_cols.size())])
            .DistinctStrings();
    rng.Shuffle(values);
    values.resize(std::min<size_t>(values.size(), 8 + rng.NextBounded(33)));

    const std::vector<ColumnResult> exact = oracle.TopKByFuzzyJoin(
        values, words, opts.tau, oracle.num_indexed_columns());
    std::map<std::pair<TableId, uint32_t>, double> truth;
    for (const ColumnResult& r : exact) {
      truth[{r.column.table_id, r.column.column_index}] = r.score;
    }
    const std::vector<ColumnResult> got = pexeso.Search(values, k).value();
    // Tie-aware recall@k: a returned column counts when its true score
    // reaches the exact k-th score.
    const size_t want = std::min(k, exact.size());
    if (want == 0) {
      recall_sum += 1.0;
      continue;
    }
    const double kth = exact[want - 1].score;
    size_t found = 0;
    for (const ColumnResult& h : got) {
      const auto it = truth.find({h.column.table_id, h.column.column_index});
      const double true_score = it == truth.end() ? 0.0 : it->second;
      // The index can only miss matches, never invent one.
      EXPECT_LE(h.score, true_score + 1e-9);
      if (found < want && true_score >= kth - 1e-9) ++found;
    }
    recall_sum += static_cast<double>(found) / static_cast<double>(want);
  }
  // An index of one vector per (column, value), whose link lists were
  // refilled up to the cap, also reached 1.0 on these queries.
  const double recall = recall_sum / queries;
  RecordProperty("recall_at_10", std::to_string(recall));
  EXPECT_GE(recall, 1.0 - 1e-9);
}

// --- MATE -------------------------------------------------------------------

DataLakeCatalog CompositeKeyLake() {
  DataLakeCatalog cat;
  // Table joinable on (first, last): same pairs as the query.
  Table good("good");
  LAKE_CHECK(good.AddColumn(MakeColumn("first", {"ann", "bob", "cal", "dan"}))
                 .ok());
  LAKE_CHECK(good.AddColumn(MakeColumn("last", {"xu", "yee", "zorn", "wu"}))
                 .ok());
  LAKE_CHECK(good.AddColumn(MakeColumn("city", {"k1", "k2", "k3", "k4"}))
                 .ok());
  LAKE_CHECK(cat.AddTable(std::move(good)).ok());
  // Table sharing each attribute's values but with MISALIGNED pairs: a
  // single-attribute join matches, the composite join must not.
  Table shuffled("shuffled");
  LAKE_CHECK(
      shuffled.AddColumn(MakeColumn("first", {"ann", "bob", "cal", "dan"}))
          .ok());
  LAKE_CHECK(shuffled.AddColumn(MakeColumn("last", {"yee", "xu", "wu", "zorn"}))
                 .ok());
  LAKE_CHECK(cat.AddTable(std::move(shuffled)).ok());
  return cat;
}

TEST(MateJoinTest, CompositeKeyDistinguishesAlignment) {
  DataLakeCatalog cat = CompositeKeyLake();
  MateJoinSearch search(&cat);

  Table query("q");
  LAKE_CHECK(query.AddColumn(MakeColumn("f", {"ann", "bob", "cal"})).ok());
  LAKE_CHECK(query.AddColumn(MakeColumn("l", {"xu", "yee", "zorn"})).ok());

  const auto results = search.Search(query, {0, 1}, 5).value();
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(cat.table(results[0].table_id).name(), "good");
  EXPECT_EQ(results[0].joinable_rows, 3u);
  EXPECT_DOUBLE_EQ(results[0].score, 1.0);
  for (const auto& r : results) {
    if (cat.table(r.table_id).name() == "shuffled") {
      EXPECT_LT(r.score, 0.5);
    }
  }
}

TEST(MateJoinTest, ColumnMappingRecovered) {
  DataLakeCatalog cat = CompositeKeyLake();
  MateJoinSearch search(&cat);
  Table query("q");
  LAKE_CHECK(query.AddColumn(MakeColumn("f", {"ann", "bob"})).ok());
  LAKE_CHECK(query.AddColumn(MakeColumn("l", {"xu", "yee"})).ok());
  const auto results = search.Search(query, {0, 1}, 1).value();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].column_mapping.size(), 2u);
  EXPECT_EQ(results[0].column_mapping[0], 0);  // f -> first
  EXPECT_EQ(results[0].column_mapping[1], 1);  // l -> last
}

TEST(MateJoinTest, SuperKeyPrunes) {
  DataLakeCatalog cat = CompositeKeyLake();
  MateJoinSearch search(&cat);
  Table query("q");
  LAKE_CHECK(query.AddColumn(MakeColumn("f", {"ann", "bob", "cal"})).ok());
  LAKE_CHECK(query.AddColumn(MakeColumn("l", {"nomatch1", "nomatch2",
                                              "nomatch3"})).ok());
  MateJoinSearch::QueryStats stats;
  const auto results = search.Search(query, {0, 1}, 5, &stats).value();
  EXPECT_TRUE(results.empty());
  // The mask filter must reject candidates before exact verification.
  EXPECT_LT(stats.superkey_survivors, stats.candidate_rows);
  EXPECT_EQ(stats.verified_rows, stats.superkey_survivors);
}

TEST(MateJoinTest, InputValidation) {
  DataLakeCatalog cat = CompositeKeyLake();
  MateJoinSearch search(&cat);
  Table query("q");
  LAKE_CHECK(query.AddColumn(MakeColumn("f", {"ann"})).ok());
  EXPECT_FALSE(search.Search(query, {}, 3).ok());
  EXPECT_FALSE(search.Search(query, {7}, 3).ok());
}

// --- Correlated join ----------------------------------------------------------

TEST(CorrelatedJoinTest, RanksPlantedCorrelationsFirst) {
  CorrelatedOptions opts;
  opts.num_pairs = 12;
  const CorrelatedWorkload w = MakeCorrelatedWorkload(opts);
  const DataLakeCatalog cat = CatalogFromCorrelatedWorkload(w);
  CorrelatedJoinSearch search(&cat);
  ASSERT_GT(search.num_indexed_pairs(), 0u);

  const auto results =
      search.Search(w.query_keys, w.query_values, 4).value();
  ASSERT_FALSE(results.empty());
  // The top hits should be the pairs with the largest |planted rho|.
  double top_planted = 0;
  for (const auto& r : results) {
    top_planted = std::max(
        top_planted, std::abs(w.pairs[r.table_id].planted_correlation));
    EXPECT_GE(r.est_containment, 0.2);
  }
  EXPECT_GT(top_planted, 0.8);
  // Estimated correlation sign should match the planted one for the top hit.
  const auto& top = results[0];
  EXPECT_GT(top.est_correlation * w.pairs[top.table_id].planted_correlation,
            0.0);
}

TEST(CorrelatedJoinTest, QueryValidation) {
  const DataLakeCatalog cat =
      CatalogFromCorrelatedWorkload(MakeCorrelatedWorkload({}));
  CorrelatedJoinSearch search(&cat);
  EXPECT_FALSE(search.Search({"a"}, {1.0, 2.0}, 3).ok());
  EXPECT_FALSE(search.Search({"a", "b"}, {1.0, 2.0}, 3).ok());  // < 3 rows
}

}  // namespace
}  // namespace lake
