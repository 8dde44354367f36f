#ifndef LAKE_SEARCH_DISCOVERY_ENGINE_H_
#define LAKE_SEARCH_DISCOVERY_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "annotate/kb_synthesis.h"
#include "approx/approx_search.h"
#include "annotate/semantic_type_detector.h"
#include "annotate/knowledge_base.h"
#include "embed/column_encoder.h"
#include "embed/contextual_encoder.h"
#include "embed/table_encoder.h"
#include "embed/word_embedding.h"
#include "search/join_containment.h"
#include "search/join_correlated.h"
#include "search/join_jaccard.h"
#include "search/join_josie.h"
#include "search/join_mate.h"
#include "search/join_pexeso.h"
#include "search/keyword_search.h"
#include "search/query.h"
#include "search/union_d3l.h"
#include "search/union_santos.h"
#include "search/union_starmie.h"
#include "search/union_tus.h"
#include "store/snapshot.h"
#include "table/catalog.h"
#include "util/cancel.h"

namespace lake {

/// Joinable-search strategies exposed by the engine (§2.4 lineage).
enum class JoinMethod {
  kExactJaccard,     // Das Sarma-style baseline
  kExactContainment, // exact domain search
  kLshEnsemble,      // Zhu et al. 2016
  kJosie,            // Zhu et al. 2019, exact top-k overlap
  kPexeso,           // Dong et al. 2021, fuzzy embedding join
  kApprox,           // sampling-based tier with confidence intervals
};

/// Unionable-search strategies (§2.5 lineage).
enum class UnionMethod {
  kTus,     // Nargesian et al. 2018
  kSantos,  // Khatiwada et al. 2023
  kStarmie, // Fan et al. 2022
  kD3l,     // Bogatu et al. 2020 (five-evidence relatedness)
};

/// End-to-end table discovery system over one catalog — the green boxes of
/// the survey's Figure 1 wired together: table understanding (embeddings +
/// KB) feeds indexing, which serves keyword, joinable, unionable, and
/// correlated search. Construction (or Restore) builds every enabled index;
/// the engine is immutable afterwards, and queries are read-only and cheap.
class DiscoveryEngine {
 public:
  struct Options {
    size_t embedding_dim = 64;
    bool build_keyword = true;
    bool build_exact_join = true;
    bool build_lsh_join = true;
    bool build_josie = true;
    bool build_pexeso = true;
    /// Sampling-based approximate join tier (src/approx): bottom-k value
    /// samples per column, interval answers, exact fallback on straddle.
    bool build_approx = true;
    bool build_mate = true;
    bool build_correlated = true;
    bool build_tus = true;
    bool build_santos = true;
    bool build_starmie = true;
    bool build_d3l = true;
    /// Synthesize the SANTOS KB from the lake (in addition to `kb`).
    bool synthesize_kb = true;
    /// Train a query-time column annotator by distant supervision: lake
    /// columns the KB grounds confidently become training labels (the
    /// survey's §3 "query-time annotation" direction).
    bool train_annotator = true;
    /// Minimum KB coverage for a column to become a training example.
    double annotator_min_coverage = 0.5;
  };

  /// `kb` is an optional curated knowledge base; the engine copies it and,
  /// when `synthesize_kb` is on, augments the copy from the lake.
  explicit DiscoveryEngine(const DataLakeCatalog* catalog)
      : DiscoveryEngine(catalog, nullptr, Options{}) {}
  DiscoveryEngine(const DataLakeCatalog* catalog, const KnowledgeBase* kb,
                  Options options)
      : DiscoveryEngine(catalog, kb, options, nullptr, nullptr) {}

  /// Builds an engine whose persistable indexes (JOSIE, Starmie HNSW) come
  /// from `snapshot` instead of an O(lake) build; every other modality is
  /// built once, as by the constructor. All or nothing: the sections load
  /// only if every enabled one reads, passes its CRC and validates against
  /// `catalog`; otherwise both are built from the catalog, so a restored
  /// engine never mixes a snapshot index with a rebuilt sibling.
  /// `sections_loaded` / `sections_rebuilt` (optional) receive what the
  /// engine actually serves: all enabled sections on one side, 0 on the
  /// other.
  static std::unique_ptr<DiscoveryEngine> Restore(
      const DataLakeCatalog* catalog, const KnowledgeBase* kb,
      Options options, const store::SnapshotReader& snapshot,
      size_t* sections_loaded = nullptr, size_t* sections_rebuilt = nullptr);

  // --- Convenience query API -------------------------------------------

  /// Keyword/metadata search.
  std::vector<TableResult> Keyword(const std::string& query, size_t k) const;

  /// Keyword search scored against external corpus statistics (the
  /// cluster's distributed-IDF two-phase protocol: gather per-shard stats
  /// with KeywordStats, merge, score every shard with the merged totals).
  /// Null stats fall back to this engine's own corpus.
  std::vector<TableResult> Keyword(const std::string& query, size_t k,
                                   const Bm25Index::CorpusStats* stats) const;

  /// This engine's BM25 corpus contribution for `query` (empty when the
  /// keyword index is not built).
  Bm25Index::CorpusStats KeywordStats(const std::string& query) const;

  /// Joinable-column search with a chosen strategy. For kLshEnsemble the
  /// containment threshold is 0.5. `cancel` (optional) is checked at
  /// dispatch for every method and polled inside the JOSIE, LSH-Ensemble,
  /// and approximate search loops. `error_budget` applies to kApprox only
  /// (<= 0 means the engine default, 0.1) and sizes that method's
  /// confidence intervals; `approx_stats`, when non-null, accumulates the
  /// approximate tier's work accounting (kApprox only).
  Result<std::vector<ColumnResult>> Joinable(
      const std::vector<std::string>& query_values, JoinMethod method,
      size_t k, const CancelToken* cancel = nullptr,
      double error_budget = -1,
      approx::ApproxQueryStats* approx_stats = nullptr) const;

  /// Unionable-table search with a chosen strategy. `cancel` (optional) is
  /// checked at dispatch for every method and polled inside the Starmie
  /// retrieval/verification loops.
  Result<std::vector<TableResult>> Unionable(
      const Table& query, UnionMethod method, size_t k, int64_t exclude = -1,
      const CancelToken* cancel = nullptr) const;

  /// Joinable-and-correlated search: the top-k lake (key, numeric) column
  /// pairs that join with `key_values` and whose numeric column correlates
  /// with `numeric_values` after the join. Each result names the numeric
  /// column, scores |correlation|, and carries the estimated correlation
  /// and key containment in its `why`. `cancel` (optional) is checked at
  /// dispatch.
  Result<std::vector<ColumnResult>> Correlated(
      const std::vector<std::string>& key_values,
      const std::vector<double>& numeric_values, size_t k,
      const CancelToken* cancel = nullptr) const;

  /// Cost-based joinable search (§3's "cost-based and distribution-aware
  /// access methods"): picks the strategy from simple statistics — exact
  /// scan while the lake is small (a scan beats any index below a few
  /// thousand columns), JOSIE for larger lakes when the exact top-k
  /// engine exists, LSH Ensemble at scale — and reports the choice.
  struct AutoJoinResult {
    JoinMethod method;
    std::vector<ColumnResult> results;
  };
  Result<AutoJoinResult> JoinableAuto(
      const std::vector<std::string>& query_values, size_t k) const;

  /// Query-time semantic type annotation of an arbitrary value column
  /// (requires Options::train_annotator and a KB that grounds at least
  /// two types in the lake; FailedPrecondition otherwise).
  Result<TypeAnnotation> AnnotateValues(
      const std::vector<std::string>& values) const;

  /// True when the distantly-supervised annotator was trainable.
  bool annotator_ready() const { return annotator_ != nullptr; }

  // --- Snapshot persistence (crash-safe restart) ------------------------

  /// Snapshot section names for the persistable indexes.
  static constexpr const char* kJosieSection = "index/josie";
  static constexpr const char* kStarmieSection = "index/starmie.hnsw";

  /// Adds one checksummed section per built persistable index (JOSIE,
  /// Starmie HNSW) to `snapshot`; commit through a SnapshotStore. Restore
  /// reads them back.
  Status SaveIndexSections(store::SnapshotWriter* snapshot) const;

  // --- Component access (benchmarks, tests, advanced callers) ----------

  const DataLakeCatalog& catalog() const { return *catalog_; }
  const WordEmbedding& words() const { return words_; }
  const ColumnEncoder& column_encoder() const { return column_encoder_; }
  const ContextualColumnEncoder& contextual_encoder() const {
    return contextual_encoder_;
  }
  const TableEncoder& table_encoder() const { return table_encoder_; }
  const KnowledgeBase& kb() const { return kb_; }

  const KeywordSearchEngine* keyword_engine() const { return keyword_.get(); }
  const ExactSetJoinSearch* exact_join() const { return exact_join_.get(); }
  const LshEnsembleJoinSearch* lsh_join() const { return lsh_join_.get(); }
  const JosieJoinSearch* josie_join() const { return josie_.get(); }
  const approx::ApproxJoinSearch* approx_join() const {
    return approx_join_.get();
  }
  const PexesoJoinSearch* pexeso_join() const { return pexeso_.get(); }
  const MateJoinSearch* mate_join() const { return mate_.get(); }
  const CorrelatedJoinSearch* correlated_join() const {
    return correlated_.get();
  }
  const TusUnionSearch* tus() const { return tus_.get(); }
  const SantosUnionSearch* santos() const { return santos_.get(); }
  const StarmieUnionSearch* starmie() const { return starmie_.get(); }
  const D3lUnionSearch* d3l() const { return d3l_.get(); }

 private:
  /// Shared by the public constructor (`snapshot` null) and Restore,
  /// which passes `sections_loaded`.
  DiscoveryEngine(const DataLakeCatalog* catalog, const KnowledgeBase* kb,
                  Options options, const store::SnapshotReader* snapshot,
                  size_t* sections_loaded);

  /// Loads every enabled persistable index from `snapshot`, or none:
  /// returns how many it loaded (0 when any one fails).
  size_t RestoreIndexes(const store::SnapshotReader& snapshot);

  const DataLakeCatalog* catalog_;
  Options options_;
  WordEmbedding words_;
  ColumnEncoder column_encoder_;
  ContextualColumnEncoder contextual_encoder_;
  TableEncoder table_encoder_;
  KnowledgeBase kb_;

  std::unique_ptr<KeywordSearchEngine> keyword_;
  std::unique_ptr<ExactSetJoinSearch> exact_join_;
  std::unique_ptr<LshEnsembleJoinSearch> lsh_join_;
  std::unique_ptr<JosieJoinSearch> josie_;
  std::unique_ptr<approx::ApproxJoinSearch> approx_join_;
  std::unique_ptr<PexesoJoinSearch> pexeso_;
  std::unique_ptr<MateJoinSearch> mate_;
  std::unique_ptr<CorrelatedJoinSearch> correlated_;
  std::unique_ptr<TusUnionSearch> tus_;
  std::unique_ptr<SantosUnionSearch> santos_;
  std::unique_ptr<StarmieUnionSearch> starmie_;
  std::unique_ptr<D3lUnionSearch> d3l_;
  std::unique_ptr<SemanticTypeDetector> annotator_;
};

}  // namespace lake

#endif  // LAKE_SEARCH_DISCOVERY_ENGINE_H_
