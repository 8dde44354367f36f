#ifndef LAKE_INGEST_GENERATION_H_
#define LAKE_INGEST_GENERATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "search/discovery_engine.h"
#include "table/catalog.h"

namespace lake::ingest {

/// The mutable half of one generation's LSM split: the tables ingested
/// since the last compaction (the "memtable"), a small DiscoveryEngine
/// built over just those tables, and the tombstones masking removed base
/// tables. Immutable once published; readers share it by shared_ptr.
///
/// Delta table ids are local to `catalog` (dense 0..n-1); their
/// lake-visible ids are `base_table_count + local`, so base and delta
/// results occupy disjoint id ranges within one generation. Ids are
/// generation-scoped — a compaction re-densifies them — so table *names*
/// are the stable identity across generations.
struct DeltaPart {
  /// Owns copies of the delta tables (the catalog owns its storage).
  std::unique_ptr<DataLakeCatalog> catalog;
  /// Memtable engine over `catalog`; null when the delta is empty. Built
  /// with the cheap delta options (see LiveEngine::Options), so its
  /// construction is O(delta), never O(lake).
  std::unique_ptr<DiscoveryEngine> engine;
  /// Base-local ids of removed-but-not-yet-compacted base tables. Query
  /// merging filters these out of base results.
  std::unordered_set<TableId> tombstones;
  /// Names behind `tombstones`, kept for compaction and persistence.
  std::vector<std::string> tombstone_names;

  size_t num_tables() const {
    return catalog == nullptr ? 0 : catalog->num_tables();
  }
};

/// One immutable published state of a lake: an immutable base (catalog +
/// fully-indexed DiscoveryEngine) plus the current DeltaPart. It is the one
/// thing every query reads, whatever the serving mode: live readers
/// Acquire() a generation from LiveEngine and query it without locks (the
/// shared_ptrs keep every referenced structure alive until the last
/// in-flight query drains, RCU-style); a frozen engine is served through
/// Frozen(), a generation with no delta.
class Generation {
 public:
  /// A generation over a frozen engine: its catalog and the engine itself
  /// as the base, an empty delta, number and version 0. Non-owning: the
  /// engine and its catalog must outlive every holder of the result.
  static std::shared_ptr<const Generation> Frozen(
      const DiscoveryEngine& engine);

  /// Compaction generation (bumped by each base swap).
  uint64_t number() const { return number_; }
  /// Publish sequence (bumped by every delta publish AND every swap);
  /// cache keys mix this in so stale results are never served.
  uint64_t version() const { return version_; }

  const DataLakeCatalog& base_catalog() const { return *base_catalog_; }
  const DiscoveryEngine& base() const { return *base_engine_; }
  const DeltaPart& delta() const { return *delta_; }
  bool has_delta() const { return delta_->engine != nullptr; }

  size_t base_table_count() const { return base_catalog_->num_tables(); }
  /// Tables visible to queries: base minus tombstones plus delta.
  size_t visible_table_count() const {
    return base_table_count() - delta_->tombstones.size() +
           delta_->num_tables();
  }

  /// True when a lake-visible id names a delta table in this generation.
  bool IsDeltaId(TableId id) const { return id >= base_table_count(); }

  /// Name of a lake-visible table id (base or delta range); NotFound for
  /// out-of-range or tombstoned ids.
  Result<std::string> TableName(TableId id) const;

  /// The table behind a lake-visible id (pointer valid while this
  /// generation is held); NotFound for out-of-range or tombstoned ids.
  Result<const Table*> FindTableById(TableId id) const;

  /// Lake-visible id of a name (delta shadows tombstoned base names).
  Result<TableId> FindTable(const std::string& name) const;

 private:
  friend class LiveEngine;
  Generation(uint64_t number, uint64_t version,
             std::shared_ptr<const DataLakeCatalog> base_catalog,
             std::shared_ptr<const DiscoveryEngine> base_engine,
             std::shared_ptr<const DeltaPart> delta)
      : number_(number),
        version_(version),
        base_catalog_(std::move(base_catalog)),
        base_engine_(std::move(base_engine)),
        delta_(std::move(delta)) {}

  uint64_t number_ = 0;
  uint64_t version_ = 0;
  std::shared_ptr<const DataLakeCatalog> base_catalog_;
  std::shared_ptr<const DiscoveryEngine> base_engine_;
  std::shared_ptr<const DeltaPart> delta_;
};

/// How much of a merged answer came from each side (delta-hit counters
/// for metrics and the ingest demo).
struct MergeStats {
  size_t base_results = 0;
  size_t delta_results = 0;
  size_t tombstone_filtered = 0;
};

/// Base+delta merged top-k queries over one acquired generation — the read
/// path of every query kind in every serving mode. The base is asked for k
/// plus the tombstone count, so filtering out removed tables still fills
/// k (a full page that filtering still leaves short, because a removed
/// table owned several top columns, is re-asked once with room for every
/// column of the removed tables); delta results are remapped into the lake-visible id range, and the
/// two ranked lists are merged by score via the shared N-way merge in
/// cluster/topk_merge.h (ties prefer base — its corpus statistics are the
/// better-calibrated side). Methods the delta engine does not build (the
/// heavyweight long tail: PEXESO, correlated, SANTOS, D3L, ...) serve
/// base-only until the next compaction folds the delta in. Over a
/// generation without a delta the answer is the base engine's own.
///
/// `corpus` (optional) scores both sides against external BM25 corpus
/// statistics — the cluster's distributed-IDF protocol; null keeps each
/// side's own stats (the single-node behavior).
std::vector<TableResult> MergedKeyword(
    const Generation& gen, const std::string& query, size_t k,
    MergeStats* stats = nullptr,
    const Bm25Index::CorpusStats* corpus = nullptr);

/// This generation's BM25 corpus contribution for `query`: base plus
/// delta stats summed. Tombstoned base tables still count (they leave the
/// corpus only at compaction), so exact cross-shard score equality holds
/// on compacted generations.
Bm25Index::CorpusStats GatherKeywordStats(const Generation& gen,
                                          const std::string& query);

/// `error_budget` and `approx_stats` apply to JoinMethod::kApprox only and
/// are forwarded to both sides' approximate tiers (see
/// DiscoveryEngine::Joinable).
Result<std::vector<ColumnResult>> MergedJoinable(
    const Generation& gen, const std::vector<std::string>& query_values,
    JoinMethod method, size_t k, const CancelToken* cancel = nullptr,
    MergeStats* stats = nullptr, double error_budget = -1,
    approx::ApproxQueryStats* approx_stats = nullptr);

Result<std::vector<TableResult>> MergedUnionable(
    const Generation& gen, const Table& query, UnionMethod method, size_t k,
    int64_t exclude = -1, const CancelToken* cancel = nullptr,
    MergeStats* stats = nullptr);

/// See DiscoveryEngine::Correlated.
Result<std::vector<ColumnResult>> MergedCorrelated(
    const Generation& gen, const std::vector<std::string>& key_values,
    const std::vector<double>& numeric_values, size_t k,
    const CancelToken* cancel = nullptr, MergeStats* stats = nullptr);

}  // namespace lake::ingest

#endif  // LAKE_INGEST_GENERATION_H_
