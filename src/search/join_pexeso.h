#ifndef LAKE_SEARCH_JOIN_PEXESO_H_
#define LAKE_SEARCH_JOIN_PEXESO_H_

#include <string>
#include <vector>

#include "embed/word_embedding.h"
#include "index/hnsw.h"
#include "search/query.h"
#include "table/catalog.h"

namespace lake {

/// PEXESO-style fuzzy joinable search (Dong et al., ICDE 2021): columns
/// join when their *embedded* values match under a similarity predicate,
/// so "US", "U.S." and "usa" can still join. Every distinct lake value is
/// embedded and indexed in one ANN structure; a query column retrieves
/// near neighbors per value and scores each lake column by the fraction of
/// query values with at least one match above the similarity threshold
/// (PEXESO's block-and-verify, with HNSW as the blocker).
class PexesoJoinSearch {
 public:
  struct Options {
    /// Cosine threshold for a value-level fuzzy match.
    double tau = 0.8;
    /// Neighbors fetched per query value from the ANN index.
    size_t neighbors_per_value = 24;
    /// Distinct normalized values taken per column (deterministic prefix).
    size_t max_values_per_column = 200;
    size_t min_distinct = 2;
    /// HNSW parameters for the global value index.
    size_t hnsw_m = 16;
    size_t hnsw_ef_construction = 100;
    size_t hnsw_ef_search = 64;
  };

  PexesoJoinSearch(const DataLakeCatalog* catalog, const WordEmbedding* words)
      : PexesoJoinSearch(catalog, words, Options{}) {}
  PexesoJoinSearch(const DataLakeCatalog* catalog, const WordEmbedding* words,
                   Options options);

  /// Top-k columns by fuzzy-joinability score (fraction of query values
  /// with a fuzzy match in the candidate column).
  Result<std::vector<ColumnResult>> Search(
      const std::vector<std::string>& query_values, size_t k) const;

  size_t num_indexed_columns() const { return refs_.size(); }
  size_t num_indexed_values() const { return value_index_.size(); }

 private:
  const DataLakeCatalog* catalog_;
  const WordEmbedding* words_;
  Options options_;
  std::vector<ColumnRef> refs_;
  HnswIndex value_index_;
  // The ANN id of a value is its index here; each entry lists the indexed
  // columns (into refs_) that hold the value, in ascending order.
  std::vector<std::vector<uint32_t>> value_columns_;
};

}  // namespace lake

#endif  // LAKE_SEARCH_JOIN_PEXESO_H_
