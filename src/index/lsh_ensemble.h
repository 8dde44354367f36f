#ifndef LAKE_INDEX_LSH_ENSEMBLE_H_
#define LAKE_INDEX_LSH_ENSEMBLE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sketch/minhash.h"
#include "util/status.h"

namespace lake {

/// LSH Ensemble (Zhu et al., VLDB 2016): internet-scale *domain search* —
/// given a query column, find indexed columns X maximizing the containment
/// |Q ∩ X| / |Q| — under heavily skewed cardinality distributions.
///
/// Containment queries cannot be answered directly by Jaccard-tuned LSH
/// because the containment↔Jaccard conversion depends on |X|, which varies
/// by orders of magnitude across a lake. The ensemble partitions indexed
/// sets by cardinality (equi-depth), so each partition has a tight upper
/// bound u_p; at query time the containment threshold t is converted to a
/// per-partition Jaccard threshold
///     j_p = t·|Q| / (|Q| + u_p − t·|Q|)
/// and each partition is probed with banding parameters (b, r) tuned for
/// j_p. Partitions whose u_p cannot meet the threshold are skipped.
///
/// Per partition, bandings for every power-of-two row count r are
/// precomputed; a query probes a b-band prefix of the r-banding chosen by
/// the same FP/FN optimization datasketch uses.
class LshEnsemble {
 public:
  struct Options {
    size_t num_hashes = 128;   // MinHash signature width
    size_t num_partitions = 8; // equi-depth cardinality partitions
  };

  explicit LshEnsemble(Options options) : options_(options) {}

  /// Stages one set for indexing. `cardinality` is the exact (or estimated)
  /// distinct count of the indexed set.
  Status Add(uint64_t id, MinHashSignature signature, size_t cardinality);

  /// Partitions staged entries and builds all banding tables. Must be
  /// called once, after all Add calls, before Query.
  Status Build();

  /// Ids of candidate sets whose containment of the query likely exceeds
  /// `threshold` in [0, 1]. `query_cardinality` is |Q|.
  Result<std::vector<uint64_t>> Query(const MinHashSignature& query,
                                      size_t query_cardinality,
                                      double threshold) const;

  size_t size() const { return entries_.size(); }
  bool built() const { return built_; }
  size_t num_partitions() const { return partitions_.size(); }

 private:
  struct Entry {
    uint64_t id;
    MinHashSignature signature;
    size_t cardinality;
  };

  /// One banding layout: for a fixed row count r, `tables[band]` maps the
  /// band key to member ids. A query probes a prefix of the bands.
  struct Banding {
    size_t rows;
    std::vector<std::unordered_map<uint64_t, std::vector<uint64_t>>> tables;
  };

  struct Partition {
    size_t lower = 0;  // min cardinality (inclusive)
    size_t upper = 0;  // max cardinality (inclusive)
    std::vector<Banding> bandings;  // one per power-of-two row count
  };

  static uint64_t BandKey(const MinHashSignature& sig, size_t rows,
                          size_t band);

  Options options_;
  bool built_ = false;
  std::vector<Entry> entries_;
  std::vector<Partition> partitions_;
};

/// Converts a containment threshold into the equivalent Jaccard threshold
/// for candidate sets of cardinality at most `upper`, given query size q:
/// the minimum possible Jaccard of a pair meeting the containment bound.
double ContainmentToJaccard(double containment, size_t query_cardinality,
                            size_t upper);

}  // namespace lake

#endif  // LAKE_INDEX_LSH_ENSEMBLE_H_
