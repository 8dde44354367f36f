#include "approx/oracle.h"

#include <algorithm>
#include <cmath>

#include "embed/word_embedding.h"
#include "text/normalizer.h"
#include "util/top_k.h"

namespace lake::approx {

namespace {

std::set<std::string> NormalizedSet(const std::vector<std::string>& values) {
  std::set<std::string> out;
  for (const std::string& v : values) {
    std::string norm = NormalizeValue(v);
    if (!norm.empty()) out.insert(std::move(norm));
  }
  return out;
}

size_t CountIn(const std::set<std::string>& a, const std::set<std::string>& b,
               size_t* probes) {
  size_t matches = 0;
  for (const std::string& v : a) {
    if (probes != nullptr) ++*probes;
    if (b.count(v) != 0) ++matches;
  }
  return matches;
}

double Cosine(const std::vector<float>& a, const std::vector<float>& b) {
  double dot = 0, aa = 0, bb = 0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    aa += static_cast<double>(a[i]) * a[i];
    bb += static_cast<double>(b[i]) * b[i];
  }
  if (aa <= 0 || bb <= 0) return 0;
  return dot / std::sqrt(aa * bb);
}

}  // namespace

DiscoveryOracle::DiscoveryOracle(const DataLakeCatalog* catalog) {
  // Eligibility mirrors ApproxEstimator's defaults (>= 2 distinct values,
  // numeric columns included) so oracle and estimator rank the same pool.
  catalog->ForEachColumn([&](const ColumnRef& ref, const Column& col) {
    std::set<std::string> values = NormalizedSet(col.DistinctStrings());
    if (values.size() < 2) return;
    refs_.push_back(ref);
    columns_.push_back(std::move(values));
    is_string_.push_back(!col.IsNumeric());
  });
}

size_t DiscoveryOracle::ExactDistinct(const std::vector<std::string>& values) {
  return NormalizedSet(values).size();
}

double DiscoveryOracle::ExactJaccard(const std::vector<std::string>& a,
                                     const std::vector<std::string>& b) {
  const std::set<std::string> sa = NormalizedSet(a);
  const std::set<std::string> sb = NormalizedSet(b);
  if (sa.empty() && sb.empty()) return 1.0;
  const size_t inter = CountIn(sa, sb, nullptr);
  const size_t uni = sa.size() + sb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double DiscoveryOracle::ExactContainment(const std::vector<std::string>& a,
                                         const std::vector<std::string>& b) {
  const std::set<std::string> sa = NormalizedSet(a);
  if (sa.empty()) return 0;
  const std::set<std::string> sb = NormalizedSet(b);
  return static_cast<double>(CountIn(sa, sb, nullptr)) /
         static_cast<double>(sa.size());
}

size_t DiscoveryOracle::ExactOverlap(const std::vector<std::string>& a,
                                     const std::vector<std::string>& b) {
  return CountIn(NormalizedSet(a), NormalizedSet(b), nullptr);
}

std::vector<ColumnResult> DiscoveryOracle::TopKByContainment(
    const std::vector<std::string>& query_values, size_t k,
    Stats* stats) const {
  Stats local;
  const std::set<std::string> query = NormalizedSet(query_values);
  TopK<size_t> top(k);
  for (size_t i = 0; i < columns_.size(); ++i) {
    ++local.candidates_checked;
    double score = 0;
    if (!query.empty()) {
      score = static_cast<double>(
                  CountIn(query, columns_[i], &local.probes)) /
              static_cast<double>(query.size());
    }
    if (score <= 0) continue;
    top.Push(score, i);
  }
  std::vector<ColumnResult> results;
  for (auto& [score, index] : top.Take()) {
    results.push_back(
        ColumnResult{refs_[index], score, "oracle containment"});
  }
  if (stats != nullptr) *stats = local;
  return results;
}

std::vector<ColumnResult> DiscoveryOracle::TopKByOverlap(
    const std::vector<std::string>& query_values, size_t k,
    Stats* stats) const {
  Stats local;
  const std::set<std::string> query = NormalizedSet(query_values);
  TopK<size_t> top(k);
  for (size_t i = 0; i < columns_.size(); ++i) {
    ++local.candidates_checked;
    const double score =
        static_cast<double>(CountIn(query, columns_[i], &local.probes));
    if (score <= 0) continue;
    top.Push(score, i);
  }
  std::vector<ColumnResult> results;
  for (auto& [score, index] : top.Take()) {
    results.push_back(ColumnResult{refs_[index], score, "oracle overlap"});
  }
  if (stats != nullptr) *stats = local;
  return results;
}

double DiscoveryOracle::ContainmentOf(
    const std::vector<std::string>& query_values, size_t index) const {
  const std::set<std::string> query = NormalizedSet(query_values);
  if (query.empty()) return 0;
  return static_cast<double>(CountIn(query, columns_[index], nullptr)) /
         static_cast<double>(query.size());
}

std::vector<ColumnResult> DiscoveryOracle::TopKByFuzzyJoin(
    const std::vector<std::string>& query_values, const WordEmbedding& words,
    double tau, size_t k, Stats* stats) const {
  Stats local;
  std::vector<std::vector<float>> query;
  for (const std::string& v : NormalizedSet(query_values)) {
    query.push_back(words.EmbedText(v));
  }
  TopK<size_t> top(k);
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!is_string_[i]) continue;
    ++local.candidates_checked;
    std::vector<std::vector<float>> column;
    for (const std::string& v : columns_[i]) {
      column.push_back(words.EmbedText(v));
    }
    size_t matched = 0;
    for (const std::vector<float>& q : query) {
      for (const std::vector<float>& c : column) {
        ++local.probes;
        if (Cosine(q, c) >= tau) {
          ++matched;
          break;
        }
      }
    }
    if (matched == 0) continue;
    top.Push(static_cast<double>(matched) / static_cast<double>(query.size()),
             i);
  }
  std::vector<ColumnResult> results;
  for (auto& [score, index] : top.Take()) {
    results.push_back(ColumnResult{refs_[index], score, "oracle fuzzy join"});
  }
  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace lake::approx
