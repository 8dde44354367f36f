#include "search/join_containment.h"

#include "text/normalizer.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/top_k.h"

namespace lake {

LshEnsembleJoinSearch::LshEnsembleJoinSearch(const DataLakeCatalog* catalog,
                                             Options options)
    : catalog_(catalog),
      options_(options),
      ensemble_(LshEnsemble::Options{options.num_hashes,
                                     options.num_partitions}) {
  catalog_->ForEachColumn([&](const ColumnRef& ref, const Column& col) {
    if (!options_.include_numeric && col.IsNumeric()) return;
    std::vector<std::string> values;
    for (const std::string& v : col.DistinctStrings()) {
      const std::string norm = NormalizeValue(v);
      if (!norm.empty()) values.push_back(norm);
    }
    if (values.size() < options_.min_distinct) return;
    refs_.push_back(ref);
    signatures_.push_back(
        MinHashSignature::Build(values, options_.num_hashes));
    cardinalities_.push_back(values.size());
    if (options_.store_exact_sets) {
      exact_sets_.push_back(HashedSet::FromValues(values));
    }
  });
  for (size_t i = 0; i < refs_.size(); ++i) {
    LAKE_CHECK(
        ensemble_.Add(i, signatures_[i], cardinalities_[i]).ok());
  }
  LAKE_CHECK(ensemble_.Build().ok());
}

Result<std::vector<ColumnResult>> LshEnsembleJoinSearch::Search(
    const std::vector<std::string>& query_values, double threshold,
    size_t k, const CancelToken* cancel) const {
  std::vector<std::string> norm;
  norm.reserve(query_values.size());
  for (const std::string& v : query_values) {
    std::string nv = NormalizeValue(v);
    if (!nv.empty()) norm.push_back(std::move(nv));
  }
  const MinHashSignature sig =
      MinHashSignature::Build(norm, options_.num_hashes);
  const HashedSet qset = HashedSet::FromValues(norm);
  LAKE_ASSIGN_OR_RETURN(std::vector<uint64_t> candidates,
                        ensemble_.Query(sig, qset.size(), threshold));

  TopK<std::pair<size_t, double>> heap(k);
  size_t ranked = 0;
  for (uint64_t cand : candidates) {
    if (cancel != nullptr && ShouldCheck(ranked++, 256)) {
      LAKE_RETURN_IF_ERROR(cancel->Check());
    }
    const size_t i = static_cast<size_t>(cand);
    double c;
    if (options_.store_exact_sets) {
      c = qset.ContainmentIn(exact_sets_[i]);
    } else {
      auto est = sig.EstimateContainment(signatures_[i], qset.size(),
                                         cardinalities_[i]);
      if (!est.ok()) continue;
      c = est.value();
    }
    if (c >= threshold) heap.Push(c, {i, c});
  }
  std::vector<ColumnResult> out;
  for (auto& [score, entry] : heap.Take()) {
    out.push_back(ColumnResult{
        refs_[entry.first], entry.second,
        StrFormat("lsh-ensemble containment=%.3f", entry.second)});
  }
  return out;
}

}  // namespace lake
