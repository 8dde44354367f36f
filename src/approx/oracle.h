#ifndef LAKE_APPROX_ORACLE_H_
#define LAKE_APPROX_ORACLE_H_

#include <set>
#include <string>
#include <vector>

#include "search/query.h"
#include "table/catalog.h"

namespace lake {
class WordEmbedding;
}  // namespace lake

namespace lake::approx {

/// Brute-force ground truth for the approximate tier's and PEXESO's tests.
/// The oracle shares NO code with the estimators and indexes it judges:
/// values are kept as normalized strings in std::set (no hashing, no
/// sketches, no sampling, no ANN graph), and every measure is a literal
/// double loop over the operands. Slow by design — its only job is to be
/// obviously correct.
class DiscoveryOracle {
 public:
  struct Stats {
    /// Candidate columns examined by the last TopKBy* call.
    size_t candidates_checked = 0;
    /// Value membership probes performed.
    size_t probes = 0;
  };

  explicit DiscoveryOracle(const DataLakeCatalog* catalog);

  /// --- Set measures over raw value lists (normalization applied) ---
  static size_t ExactDistinct(const std::vector<std::string>& values);
  static double ExactJaccard(const std::vector<std::string>& a,
                             const std::vector<std::string>& b);
  /// |A ∩ B| / |A|; 0 when A is empty.
  static double ExactContainment(const std::vector<std::string>& a,
                                 const std::vector<std::string>& b);
  static size_t ExactOverlap(const std::vector<std::string>& a,
                             const std::vector<std::string>& b);

  /// --- Catalog-wide brute force (every eligible column, no pruning) ---
  std::vector<ColumnResult> TopKByContainment(
      const std::vector<std::string>& query_values, size_t k,
      Stats* stats = nullptr) const;
  std::vector<ColumnResult> TopKByOverlap(
      const std::vector<std::string>& query_values, size_t k,
      Stats* stats = nullptr) const;
  /// Containment of the query in one specific indexed column.
  double ContainmentOf(const std::vector<std::string>& query_values,
                       size_t index) const;

  /// PEXESO's fuzzy-join score without an index: every distinct query value
  /// and every distinct value of every string column is embedded with
  /// `words`, and a column scores the fraction of query values with at
  /// least one of its values at cosine >= tau. No value cap per column.
  /// `probes` counts cosine evaluations.
  std::vector<ColumnResult> TopKByFuzzyJoin(
      const std::vector<std::string>& query_values, const WordEmbedding& words,
      double tau, size_t k, Stats* stats = nullptr) const;

  size_t num_indexed_columns() const { return refs_.size(); }
  const std::vector<ColumnRef>& indexed_columns() const { return refs_; }
  size_t cardinality(size_t index) const { return columns_[index].size(); }

 private:
  std::vector<ColumnRef> refs_;
  /// Normalized distinct values per eligible column.
  std::vector<std::set<std::string>> columns_;
  /// Per eligible column: false for numeric columns, which fuzzy joins skip.
  std::vector<bool> is_string_;
};

}  // namespace lake::approx

#endif  // LAKE_APPROX_ORACLE_H_
