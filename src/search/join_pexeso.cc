#include "search/join_pexeso.h"

#include <unordered_map>
#include <unordered_set>

#include "text/normalizer.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/top_k.h"

namespace lake {

PexesoJoinSearch::PexesoJoinSearch(const DataLakeCatalog* catalog,
                                   const WordEmbedding* words,
                                   Options options)
    : catalog_(catalog),
      words_(words),
      options_(options),
      value_index_(HnswIndex::Options{words->dim(), VectorMetric::kCosine,
                                      options.hnsw_m,
                                      options.hnsw_ef_construction,
                                      /*seed=*/99}) {
  std::unordered_map<std::string, uint32_t> value_ids;
  catalog_->ForEachColumn([&](const ColumnRef& ref, const Column& col) {
    if (col.IsNumeric()) return;  // fuzzy matching is a string phenomenon
    std::vector<std::string> values;
    std::unordered_set<std::string> seen;
    for (const std::string& v : col.DistinctStrings()) {
      if (values.size() >= options_.max_values_per_column) break;
      std::string norm = NormalizeValue(v);
      if (!norm.empty() && seen.insert(norm).second) {
        values.push_back(std::move(norm));
      }
    }
    if (values.size() < options_.min_distinct) return;
    const uint32_t col_idx = static_cast<uint32_t>(refs_.size());
    refs_.push_back(ref);
    for (std::string& v : values) {
      const auto [it, added] = value_ids.try_emplace(
          std::move(v), static_cast<uint32_t>(value_columns_.size()));
      if (added) {
        value_columns_.emplace_back();
        LAKE_CHECK(
            value_index_.Insert(it->second, words_->EmbedText(it->first)).ok());
      }
      value_columns_[it->second].push_back(col_idx);
    }
  });
}

Result<std::vector<ColumnResult>> PexesoJoinSearch::Search(
    const std::vector<std::string>& query_values, size_t k) const {
  // Deduplicate normalized query values.
  std::vector<std::string> queries;
  {
    std::unordered_set<std::string> seen;
    for (const std::string& v : query_values) {
      std::string norm = NormalizeValue(v);
      if (norm.empty() || !seen.insert(norm).second) continue;
      queries.push_back(std::move(norm));
    }
  }
  if (queries.empty()) return std::vector<ColumnResult>{};

  // For each query value, the set of columns with a fuzzy match; score is
  // per-column matched-value count.
  std::unordered_map<uint32_t, uint32_t> matches;
  for (const std::string& q : queries) {
    LAKE_ASSIGN_OR_RETURN(
        std::vector<VectorHit> hits,
        value_index_.Search(words_->EmbedText(q),
                            options_.neighbors_per_value,
                            options_.hnsw_ef_search));
    std::unordered_set<uint32_t> cols_this_value;
    for (const VectorHit& h : hits) {
      if (h.score < options_.tau) continue;
      const std::vector<uint32_t>& cols = value_columns_[h.id];
      cols_this_value.insert(cols.begin(), cols.end());
    }
    for (uint32_t c : cols_this_value) ++matches[c];
  }

  TopK<std::pair<uint32_t, double>> heap(k);
  for (const auto& [col, count] : matches) {
    const double score =
        static_cast<double>(count) / static_cast<double>(queries.size());
    heap.Push(score, {col, score});
  }
  std::vector<ColumnResult> out;
  for (auto& [score, entry] : heap.Take()) {
    out.push_back(ColumnResult{
        refs_[entry.first], entry.second,
        StrFormat("fuzzy match fraction=%.3f (tau=%.2f)", entry.second,
                  options_.tau)});
  }
  return out;
}

}  // namespace lake
