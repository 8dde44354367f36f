#include "reference.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "bench.h"
#include "ingest/live_engine.h"
#include "text/normalizer.h"

namespace perfbench {

namespace {

std::string ColKey(const std::string& table, size_t column) {
  return table + '\x1f' + std::to_string(column);
}

}  // namespace

std::vector<std::string> NormalizedDistinct(
    const std::vector<std::string>& values) {
  std::set<std::string> set;
  for (const std::string& v : values) {
    std::string norm = lake::NormalizeValue(v);
    if (!norm.empty()) set.insert(std::move(norm));
  }
  return {set.begin(), set.end()};
}

OverlapReference::OverlapReference(
    const std::vector<const lake::Table*>& tables) {
  for (const lake::Table* t : tables) {
    for (size_t c = 0; c < t->num_columns(); ++c) {
      const std::vector<std::string> values =
          NormalizedDistinct(t->column(c).DistinctStrings());
      if (values.size() < 2) continue;
      const uint32_t index = static_cast<uint32_t>(cols_.size());
      cols_.push_back({t->name(), c});
      col_index_[ColKey(t->name(), c)] = index;
      for (const std::string& v : values) postings_[v].push_back(index);
    }
  }
}

std::vector<uint32_t> OverlapReference::Counts(
    const std::vector<std::string>& query) const {
  std::vector<uint32_t> counts(cols_.size(), 0);
  for (const std::string& v : NormalizedDistinct(query)) {
    auto it = postings_.find(v);
    if (it == postings_.end()) continue;
    for (uint32_t c : it->second) ++counts[c];
  }
  return counts;
}

std::vector<Hit> OverlapReference::TopK(const std::vector<std::string>& query,
                                        size_t k) const {
  const std::vector<uint32_t> counts = Counts(query);
  std::vector<uint32_t> order;
  for (uint32_t c = 0; c < counts.size(); ++c) {
    if (counts[c] > 0) order.push_back(c);
  }
  const size_t n = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + n, order.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (counts[a] != counts[b]) return counts[a] > counts[b];
                      return a < b;
                    });
  std::vector<Hit> out;
  for (size_t i = 0; i < n; ++i) {
    const Col& col = cols_[order[i]];
    out.push_back({col.table, col.column, static_cast<double>(counts[order[i]])});
  }
  return out;
}

double OverlapReference::OverlapOf(const std::vector<std::string>& query,
                                   const std::string& table,
                                   size_t column) const {
  auto it = col_index_.find(ColKey(table, column));
  if (it == col_index_.end()) return -1;
  size_t overlap = 0;
  for (const std::string& v : NormalizedDistinct(query)) {
    auto p = postings_.find(v);
    if (p == postings_.end()) continue;
    if (std::binary_search(p->second.begin(), p->second.end(),
                           static_cast<uint32_t>(it->second))) {
      ++overlap;
    }
  }
  return static_cast<double>(overlap);
}

uint64_t AnswerDigest(const std::vector<Hit>& hits) {
  uint64_t h = Mix(0, hits.size());
  for (const Hit& hit : hits) {
    h = HashString(h, hit.table);
    h = Mix(h, hit.column);
    h = HashDouble(h, hit.score);
  }
  return h;
}

uint64_t LakeDigest(const std::vector<const lake::Table*>& tables) {
  // Sum of per-table digests mixed with the name: order-independent.
  uint64_t sum = 0;
  for (const lake::Table* t : tables) {
    sum += Mix(HashString(0, t->name()), lake::ingest::TableContentDigest(*t));
  }
  return Mix(sum, tables.size());
}

std::string DescribeHits(const std::vector<Hit>& hits) {
  std::string out = "[";
  for (const Hit& h : hits) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", h.score);
    if (out.size() > 1) out += ", ";
    out += h.table + "#" + std::to_string(h.column) + "=" + buf;
  }
  return out + "]";
}

}  // namespace perfbench
