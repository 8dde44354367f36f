#include "search/discovery_engine.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace lake {

std::unique_ptr<DiscoveryEngine> DiscoveryEngine::Restore(
    const DataLakeCatalog* catalog, const KnowledgeBase* kb, Options options,
    const store::SnapshotReader& snapshot, size_t* sections_loaded,
    size_t* sections_rebuilt) {
  size_t loaded = 0;
  auto engine = std::unique_ptr<DiscoveryEngine>(
      new DiscoveryEngine(catalog, kb, options, &snapshot, &loaded));
  const size_t enabled = (options.build_josie ? 1 : 0) +
                         (options.build_starmie ? 1 : 0);
  if (sections_loaded != nullptr) *sections_loaded = loaded;
  if (sections_rebuilt != nullptr) *sections_rebuilt = enabled - loaded;
  return engine;
}

DiscoveryEngine::DiscoveryEngine(const DataLakeCatalog* catalog,
                                 const KnowledgeBase* kb, Options options,
                                 const store::SnapshotReader* snapshot,
                                 size_t* sections_loaded)
    : catalog_(catalog),
      options_(options),
      words_(WordEmbedding::Options{.dim = options.embedding_dim}),
      column_encoder_(&words_),
      contextual_encoder_(&column_encoder_),
      table_encoder_(&column_encoder_, &words_) {
  if (kb != nullptr) kb_ = *kb;
  if (options_.synthesize_kb) {
    KbSynthesizer().AugmentInPlace(*catalog_, &kb_);
  }
  if (snapshot != nullptr) *sections_loaded = RestoreIndexes(*snapshot);

  if (options_.build_keyword) {
    keyword_ = std::make_unique<KeywordSearchEngine>(catalog_);
  }
  if (options_.build_exact_join) {
    exact_join_ = std::make_unique<ExactSetJoinSearch>(catalog_);
  }
  if (options_.build_lsh_join) {
    lsh_join_ = std::make_unique<LshEnsembleJoinSearch>(catalog_);
  }
  if (options_.build_josie && josie_ == nullptr) {
    josie_ = std::make_unique<JosieJoinSearch>(catalog_);
  }
  if (options_.build_approx) {
    approx_join_ = std::make_unique<approx::ApproxJoinSearch>(catalog_);
  }
  if (options_.build_pexeso) {
    pexeso_ = std::make_unique<PexesoJoinSearch>(catalog_, &words_);
  }
  if (options_.build_mate) {
    mate_ = std::make_unique<MateJoinSearch>(catalog_);
  }
  if (options_.build_correlated) {
    correlated_ = std::make_unique<CorrelatedJoinSearch>(catalog_);
  }
  if (options_.build_tus) {
    tus_ = std::make_unique<TusUnionSearch>(catalog_, &column_encoder_, &kb_);
  }
  if (options_.build_santos) {
    santos_ = std::make_unique<SantosUnionSearch>(catalog_, &kb_);
  }
  if (options_.build_starmie && starmie_ == nullptr) {
    starmie_ =
        std::make_unique<StarmieUnionSearch>(catalog_, &contextual_encoder_);
  }
  if (options_.build_d3l) {
    d3l_ = std::make_unique<D3lUnionSearch>(catalog_, &column_encoder_);
  }
  if (options_.train_annotator) {
    // Distant supervision: lake columns the KB grounds confidently become
    // labeled examples, so arbitrary query columns can be annotated at
    // query time without hand labels.
    std::vector<LabeledColumn> examples;
    for (TableId t : catalog_->AllTables()) {
      const Table& table = catalog_->table(t);
      for (size_t col = 0; col < table.num_columns(); ++col) {
        if (table.column(col).IsNumeric()) continue;
        auto vote = kb_.ColumnType(table.column(col).DistinctStrings());
        if (!vote.ok() ||
            vote.value().coverage < options_.annotator_min_coverage) {
          continue;
        }
        examples.push_back(LabeledColumn{&table, col, vote.value().type});
      }
    }
    auto detector = std::make_unique<SemanticTypeDetector>(&words_);
    if (!examples.empty() && detector->Train(examples).ok()) {
      annotator_ = std::move(detector);
    }
  }
}

Status DiscoveryEngine::SaveIndexSections(
    store::SnapshotWriter* snapshot) const {
  if (josie_ != nullptr) {
    LAKE_RETURN_IF_ERROR(snapshot->AddSection(
        kJosieSection,
        [&](BinaryWriter* w) { return josie_->SaveSnapshot(w->stream()); }));
  }
  if (starmie_ != nullptr) {
    LAKE_RETURN_IF_ERROR(snapshot->AddSection(
        kStarmieSection,
        [&](BinaryWriter* w) { return starmie_->SaveSnapshot(w->stream()); }));
  }
  return Status::OK();
}

size_t DiscoveryEngine::RestoreIndexes(
    const store::SnapshotReader& snapshot) {
  std::unique_ptr<JosieJoinSearch> josie;
  std::unique_ptr<StarmieUnionSearch> starmie;
  auto load = [&]() -> Status {
    if (options_.build_josie) {
      LAKE_ASSIGN_OR_RETURN(std::string payload,
                            snapshot.ReadSection(kJosieSection));
      LAKE_ASSIGN_OR_RETURN(josie,
                            JosieJoinSearch::FromSnapshot(catalog_, payload));
    }
    if (options_.build_starmie) {
      LAKE_ASSIGN_OR_RETURN(std::string payload,
                            snapshot.ReadSection(kStarmieSection));
      LAKE_ASSIGN_OR_RETURN(
          starmie, StarmieUnionSearch::FromSnapshot(
                       catalog_, &contextual_encoder_, payload));
    }
    return Status::OK();
  };
  const Status status = load();
  if (!status.ok()) {
    LAKE_LOG(Warning) << "index sections unusable, rebuilding: "
                      << status.ToString();
    return 0;
  }
  josie_ = std::move(josie);
  starmie_ = std::move(starmie);
  return (josie_ != nullptr ? 1 : 0) + (starmie_ != nullptr ? 1 : 0);
}

Result<DiscoveryEngine::AutoJoinResult> DiscoveryEngine::JoinableAuto(
    const std::vector<std::string>& query_values, size_t k) const {
  // Cheap statistics-driven plan selection. Thresholds are deliberately
  // coarse: the point is the *mechanism* (adapting the access method to
  // the data distribution), which §3 calls out as an open direction.
  const size_t lake_columns = catalog_->num_columns();
  JoinMethod method;
  if (exact_join_ != nullptr && lake_columns <= 2048) {
    method = JoinMethod::kExactContainment;  // scans win on small lakes
  } else if (josie_ != nullptr) {
    method = JoinMethod::kJosie;  // exact, with filter pruning
  } else if (lsh_join_ != nullptr) {
    method = JoinMethod::kLshEnsemble;  // sketches at scale
  } else if (exact_join_ != nullptr) {
    method = JoinMethod::kExactContainment;
  } else {
    return Status::FailedPrecondition("no joinable-search engine built");
  }
  LAKE_ASSIGN_OR_RETURN(std::vector<ColumnResult> results,
                        Joinable(query_values, method, k));
  return AutoJoinResult{method, std::move(results)};
}

Result<TypeAnnotation> DiscoveryEngine::AnnotateValues(
    const std::vector<std::string>& values) const {
  if (annotator_ == nullptr) {
    return Status::FailedPrecondition(
        "annotator unavailable (train_annotator off, or the KB grounds "
        "fewer than two types in this lake)");
  }
  Column column("query", DataType::kString);
  for (const std::string& v : values) {
    if (!v.empty()) column.Append(Value(v));
  }
  return annotator_->Annotate(column);
}

std::vector<TableResult> DiscoveryEngine::Keyword(const std::string& query,
                                                  size_t k) const {
  if (keyword_ == nullptr) return {};
  return keyword_->Search(query, k);
}

std::vector<TableResult> DiscoveryEngine::Keyword(
    const std::string& query, size_t k,
    const Bm25Index::CorpusStats* stats) const {
  if (keyword_ == nullptr) return {};
  return keyword_->Search(query, k, stats);
}

Bm25Index::CorpusStats DiscoveryEngine::KeywordStats(
    const std::string& query) const {
  if (keyword_ == nullptr) return {};
  return keyword_->GatherStats(query);
}

Result<std::vector<ColumnResult>> DiscoveryEngine::Joinable(
    const std::vector<std::string>& query_values, JoinMethod method, size_t k,
    const CancelToken* cancel, double error_budget,
    approx::ApproxQueryStats* approx_stats) const {
  if (cancel != nullptr) LAKE_RETURN_IF_ERROR(cancel->Check());
  switch (method) {
    case JoinMethod::kExactJaccard:
      if (exact_join_ == nullptr) {
        return Status::FailedPrecondition("exact join index not built");
      }
      return exact_join_->TopKByJaccard(query_values, k);
    case JoinMethod::kExactContainment:
      if (exact_join_ == nullptr) {
        return Status::FailedPrecondition("exact join index not built");
      }
      return exact_join_->TopKByContainment(query_values, k);
    case JoinMethod::kLshEnsemble:
      if (lsh_join_ == nullptr) {
        return Status::FailedPrecondition("LSH ensemble index not built");
      }
      return lsh_join_->Search(query_values, /*threshold=*/0.5, k, cancel);
    case JoinMethod::kJosie:
      if (josie_ == nullptr) {
        return Status::FailedPrecondition("JOSIE index not built");
      }
      return josie_->Search(query_values, k, /*stats=*/nullptr, cancel);
    case JoinMethod::kPexeso:
      if (pexeso_ == nullptr) {
        return Status::FailedPrecondition("PEXESO index not built");
      }
      return pexeso_->Search(query_values, k);
    case JoinMethod::kApprox:
      if (approx_join_ == nullptr) {
        return Status::FailedPrecondition("approx sample index not built");
      }
      return approx_join_->Search(query_values, k, error_budget, approx_stats,
                                  cancel);
  }
  return Status::InvalidArgument("unknown join method");
}

Result<std::vector<ColumnResult>> DiscoveryEngine::Correlated(
    const std::vector<std::string>& key_values,
    const std::vector<double>& numeric_values, size_t k,
    const CancelToken* cancel) const {
  if (cancel != nullptr) LAKE_RETURN_IF_ERROR(cancel->Check());
  if (correlated_ == nullptr) {
    return Status::FailedPrecondition("correlated index not built");
  }
  LAKE_ASSIGN_OR_RETURN(
      std::vector<CorrelatedJoinSearch::CorrelatedResult> found,
      correlated_->Search(key_values, numeric_values, k));
  std::vector<ColumnResult> results;
  results.reserve(found.size());
  for (const CorrelatedJoinSearch::CorrelatedResult& r : found) {
    results.push_back(ColumnResult{
        ColumnRef{r.table_id, r.numeric_column}, r.score,
        StrFormat("corr=%.3f containment=%.3f", r.est_correlation,
                  r.est_containment)});
  }
  return results;
}

Result<std::vector<TableResult>> DiscoveryEngine::Unionable(
    const Table& query, UnionMethod method, size_t k, int64_t exclude,
    const CancelToken* cancel) const {
  if (cancel != nullptr) LAKE_RETURN_IF_ERROR(cancel->Check());
  switch (method) {
    case UnionMethod::kTus:
      if (tus_ == nullptr) {
        return Status::FailedPrecondition("TUS engine not built");
      }
      return tus_->Search(query, k, exclude);
    case UnionMethod::kSantos:
      if (santos_ == nullptr) {
        return Status::FailedPrecondition("SANTOS engine not built");
      }
      return santos_->Search(query, k, exclude);
    case UnionMethod::kStarmie:
      if (starmie_ == nullptr) {
        return Status::FailedPrecondition("Starmie engine not built");
      }
      return starmie_->Search(query, k, exclude, cancel);
    case UnionMethod::kD3l:
      if (d3l_ == nullptr) {
        return Status::FailedPrecondition("D3L engine not built");
      }
      return d3l_->Search(query, k, exclude);
  }
  return Status::InvalidArgument("unknown union method");
}

}  // namespace lake
