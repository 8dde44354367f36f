#ifndef LAKE_INDEX_HNSW_H_
#define LAKE_INDEX_HNSW_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "index/vector_ops.h"
#include "util/random.h"
#include "util/status.h"

namespace lake {

/// Distance used by the vector indexes. Cosine normalizes inputs at insert
/// and query time and ranks by (1 - dot).
enum class VectorMetric { kCosine, kL2 };

/// Result of a kNN query: caller id plus similarity score (higher is
/// better: cosine similarity, or negative L2 distance).
struct VectorHit {
  uint64_t id = 0;
  double score = 0;
};

/// Hierarchical Navigable Small World graph (Malkov & Yashunin, TPAMI
/// 2020) — the graph ANN index Starmie uses for column-embedding search
/// and the survey highlights for lake-scale vector indexing.
///
/// Implements the construction of the paper: exponentially-distributed
/// node levels, greedy descent through upper layers, beam search
/// (SEARCH-LAYER) with efConstruction, and the diversity heuristic
/// (Algorithm 4) for neighbor selection with bidirectional link repair.
/// As in the paper's default, pruned candidates are not refilled up to the
/// link cap (keepPrunedConnections off). SEARCH-LAYER marks visited nodes
/// in a per-thread scratch array, so concurrent Search calls share nothing
/// mutable.
class HnswIndex {
 public:
  struct Options {
    size_t dim = 64;
    VectorMetric metric = VectorMetric::kCosine;
    size_t m = 16;                 // max links per node on layers > 0
    size_t ef_construction = 200;  // beam width during construction
    uint64_t seed = 42;            // level sampling seed
  };

  explicit HnswIndex(Options options);

  /// Inserts a vector under a caller id. Dimension must match (checked).
  Status Insert(uint64_t id, Vector vec);

  /// Approximate k nearest neighbors; `ef_search` is the query beam width
  /// (clamped up to k). Results sorted by descending score.
  Result<std::vector<VectorHit>> Search(const Vector& query, size_t k,
                                        size_t ef_search = 64) const;

  size_t size() const { return nodes_.size(); }
  const Options& options() const { return options_; }
  int max_level() const { return max_level_; }

  /// Total number of directed links (memory proxy for benchmarks).
  size_t TotalLinks() const;

  /// Persists the graph (options, vectors, links). Loaded indexes answer
  /// queries identically; further inserts are allowed but draw levels from
  /// a reseeded generator, so an index saved and extended will differ from
  /// one built in a single run.
  Status Save(std::ostream* out) const;

  /// Restores an index persisted with Save, replacing this instance.
  Status Load(std::istream* in);

 private:
  struct Node {
    uint64_t id;
    Vector vec;
    // links[l] = neighbor node indices on layer l (0..level).
    std::vector<std::vector<uint32_t>> links;
  };

  /// Smaller is closer (1-dot for cosine on normalized vectors, squared L2).
  double Distance(const Vector& a, const Vector& b) const;

  /// Beam search on one layer from `entry`; returns up to `ef` closest
  /// (distance, node) pairs, ascending by distance.
  std::vector<std::pair<double, uint32_t>> SearchLayer(
      const Vector& query, uint32_t entry, size_t ef, int layer) const;

  /// Greedy walk from the entry point down the layers above `bottom`,
  /// moving to the closest neighbor until none is closer; returns the last
  /// node reached.
  uint32_t GreedyDescend(const Vector& query, int bottom) const;

  /// Algorithm-4 neighbor selection: keeps, in ascending distance, up to m
  /// candidates closer to the base point than to any already-selected
  /// neighbor, and drops the rest.
  std::vector<uint32_t> SelectNeighbors(
      std::vector<std::pair<double, uint32_t>> candidates,
      size_t m) const;

  size_t MaxLinks(int layer) const { return layer == 0 ? 2 * options_.m : options_.m; }

  Options options_;
  double level_lambda_;  // 1 / ln(M)
  mutable Rng rng_;
  std::vector<Node> nodes_;
  int max_level_ = -1;
  uint32_t entry_point_ = 0;
};

}  // namespace lake

#endif  // LAKE_INDEX_HNSW_H_
