#ifndef LAKE_SEARCH_JOIN_CONTAINMENT_H_
#define LAKE_SEARCH_JOIN_CONTAINMENT_H_

#include <string>
#include <vector>

#include "index/lsh_ensemble.h"
#include "search/query.h"
#include "sketch/set_ops.h"
#include "table/catalog.h"
#include "util/cancel.h"

namespace lake {

/// Scalable containment-based joinable search built on LSH Ensemble (§2.4):
/// every lake column is MinHash-sketched and indexed by cardinality
/// partition; a query retrieves candidate columns above a containment
/// threshold in sub-linear time, then ranks them. Ranking is exact when
/// `store_exact_sets` is on (small/medium lakes) and sketch-estimated
/// otherwise (the internet-scale configuration of the original system).
class LshEnsembleJoinSearch {
 public:
  struct Options {
    size_t num_hashes = 128;
    size_t num_partitions = 8;
    size_t min_distinct = 2;
    bool include_numeric = true;
    /// Keep exact hashed sets for candidate re-ranking.
    bool store_exact_sets = true;
  };

  explicit LshEnsembleJoinSearch(const DataLakeCatalog* catalog)
      : LshEnsembleJoinSearch(catalog, Options{}) {}
  LshEnsembleJoinSearch(const DataLakeCatalog* catalog, Options options);

  /// Top-k candidate columns with containment >= threshold (best-effort:
  /// LSH recall is probabilistic). Sorted by descending containment.
  /// `cancel` is polled along the candidate re-ranking loop.
  Result<std::vector<ColumnResult>> Search(
      const std::vector<std::string>& query_values, double threshold,
      size_t k, const CancelToken* cancel = nullptr) const;

  size_t num_indexed_columns() const { return refs_.size(); }
  const std::vector<ColumnRef>& indexed_columns() const { return refs_; }
  const LshEnsemble& ensemble() const { return ensemble_; }

 private:
  const DataLakeCatalog* catalog_;
  Options options_;
  std::vector<ColumnRef> refs_;
  std::vector<MinHashSignature> signatures_;
  std::vector<size_t> cardinalities_;
  std::vector<HashedSet> exact_sets_;  // empty when !store_exact_sets
  LshEnsemble ensemble_;
};

}  // namespace lake

#endif  // LAKE_SEARCH_JOIN_CONTAINMENT_H_
