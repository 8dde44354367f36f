// Exact references the benchmark checks answers against, and the
// tie-aware comparisons it uses. Answers are compared by table name and
// column index, never by id: ids are local to a catalog, generation or
// shard, names are the stable identity across serving modes.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "table/catalog.h"
#include "table/table.h"

namespace perfbench {

/// One ranked answer entry in mode-independent form.
struct Hit {
  std::string table;
  size_t column = 0;  // 0 for table-level answers
  double score = 0;
};

/// Exact top-k overlap over a set of tables through an inverted index of
/// normalized distinct values. Column eligibility matches JOSIE's and the
/// DiscoveryOracle's defaults (>= 2 distinct normalized values, numeric
/// columns included), so it ranks the same pool in microseconds per query
/// where the brute-force oracle needs milliseconds on a large lake.
class OverlapReference {
 public:
  explicit OverlapReference(const std::vector<const lake::Table*>& tables);

  /// Top-k columns by overlap, descending, overlap > 0 only.
  std::vector<Hit> TopK(const std::vector<std::string>& query, size_t k) const;
  /// Exact overlap of the query with one column (-1 when not indexed).
  double OverlapOf(const std::vector<std::string>& query,
                   const std::string& table, size_t column) const;

 private:
  struct Col {
    std::string table;
    size_t column = 0;
  };
  std::vector<uint32_t> Counts(const std::vector<std::string>& query) const;

  std::vector<Col> cols_;
  std::unordered_map<std::string, size_t> col_index_;  // "table\x1fcol"
  std::unordered_map<std::string, std::vector<uint32_t>> postings_;
};

/// Normalized distinct query set (the same normalization the indexes use).
std::vector<std::string> NormalizedDistinct(
    const std::vector<std::string>& values);

/// True when `actual` is a valid top-k answer given the exact `expected`
/// ranking and a function giving any entry's true score: the score
/// sequences agree, and every returned entry's reported score is its true
/// score. Entries tied on score may appear in any order or be swapped for
/// one another.
template <typename TrueScore>
bool TieAwareEqual(const std::vector<Hit>& actual,
                   const std::vector<Hit>& expected, TrueScore true_score) {
  constexpr double tolerance = 1e-9;
  if (actual.size() != expected.size()) return false;
  for (size_t i = 0; i < actual.size(); ++i) {
    const double d = actual[i].score - expected[i].score;
    if (d > tolerance || d < -tolerance) return false;
    const double t = true_score(actual[i]) - actual[i].score;
    if (t > tolerance || t < -tolerance) return false;
  }
  return true;
}

/// Tie-aware recall@k of an approximate answer: the share of the exact
/// top-k that the answer covers, where a returned entry counts when its
/// true score reaches the exact k-th score.
template <typename TrueScore>
double TieAwareRecall(const std::vector<Hit>& actual,
                      const std::vector<Hit>& exact, size_t k,
                      TrueScore true_score) {
  const size_t want = std::min(k, exact.size());
  if (want == 0) return 1.0;
  const double kth = exact[want - 1].score;
  size_t got = 0;
  for (const Hit& h : actual) {
    if (got == want) break;
    if (true_score(h) >= kth - 1e-9) ++got;
  }
  return static_cast<double>(got) / static_cast<double>(want);
}

/// Digest of a ranked answer (names, columns, scores, in order).
uint64_t AnswerDigest(const std::vector<Hit>& hits);

/// Digest of a set of tables' contents, independent of their order.
uint64_t LakeDigest(const std::vector<const lake::Table*>& tables);

std::string DescribeHits(const std::vector<Hit>& hits);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
