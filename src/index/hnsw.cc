#include "index/hnsw.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/serialize.h"
#include "util/string_util.h"

namespace lake {

HnswIndex::HnswIndex(Options options)
    : options_(options),
      level_lambda_(1.0 / std::log(std::max<double>(2.0, options.m))),
      rng_(options.seed) {}

double HnswIndex::Distance(const Vector& a, const Vector& b) const {
  if (options_.metric == VectorMetric::kCosine) {
    // Vectors are normalized at insert/query time; 1 - dot is a proper
    // ordering-equivalent of angular distance.
    return 1.0 - Dot(a, b);
  }
  return L2DistanceSquared(a, b);
}

namespace {

/// Visited marks for SearchLayer: node i was visited in the current call
/// when tags[i] == epoch. Bumping the epoch clears every mark at once; the
/// array is zeroed only when the epoch wraps. One per thread, because
/// Search is const and runs on many threads at once; every index a thread
/// searches shares it, which is safe because calls do not nest.
struct VisitedScratch {
  std::vector<uint32_t> tags;
  uint32_t epoch = 0;

  uint32_t Begin(size_t num_nodes) {
    if (tags.size() < num_nodes) tags.resize(num_nodes, 0);
    if (++epoch == 0) {
      std::fill(tags.begin(), tags.end(), 0);
      epoch = 1;
    }
    return epoch;
  }
};

thread_local VisitedScratch visited_scratch;

}  // namespace

std::vector<std::pair<double, uint32_t>> HnswIndex::SearchLayer(
    const Vector& query, uint32_t entry, size_t ef, int layer) const {
  // Min-heap of candidates to expand; max-heap of current best ef results.
  using DistNode = std::pair<double, uint32_t>;
  std::priority_queue<DistNode, std::vector<DistNode>, std::greater<>>
      candidates;
  std::priority_queue<DistNode> best;
  std::vector<uint32_t>& visited = visited_scratch.tags;
  const uint32_t epoch = visited_scratch.Begin(nodes_.size());

  const double d0 = Distance(query, nodes_[entry].vec);
  candidates.emplace(d0, entry);
  best.emplace(d0, entry);
  visited[entry] = epoch;

  while (!candidates.empty()) {
    const auto [dist, node] = candidates.top();
    candidates.pop();
    if (dist > best.top().first && best.size() >= ef) break;
    for (uint32_t nb : nodes_[node].links[layer]) {
      if (visited[nb] == epoch) continue;
      visited[nb] = epoch;
      const double d = Distance(query, nodes_[nb].vec);
      if (best.size() < ef || d < best.top().first) {
        candidates.emplace(d, nb);
        best.emplace(d, nb);
        if (best.size() > ef) best.pop();
      }
    }
  }

  std::vector<DistNode> out;
  out.reserve(best.size());
  while (!best.empty()) {
    out.push_back(best.top());
    best.pop();
  }
  std::reverse(out.begin(), out.end());  // ascending distance
  return out;
}

uint32_t HnswIndex::GreedyDescend(const Vector& query, int bottom) const {
  uint32_t entry = entry_point_;
  for (int l = max_level_; l > bottom; --l) {
    bool improved = true;
    double cur = Distance(query, nodes_[entry].vec);
    while (improved) {
      improved = false;
      for (uint32_t nb : nodes_[entry].links[l]) {
        const double d = Distance(query, nodes_[nb].vec);
        if (d < cur) {
          cur = d;
          entry = nb;
          improved = true;
        }
      }
    }
  }
  return entry;
}

std::vector<uint32_t> HnswIndex::SelectNeighbors(
    std::vector<std::pair<double, uint32_t>> candidates,
    size_t m) const {
  std::sort(candidates.begin(), candidates.end());
  std::vector<uint32_t> selected;
  selected.reserve(m);
  // Diversity heuristic: keep a candidate only if it is closer to the base
  // than to every already-selected neighbor, so links span directions
  // instead of clustering. Pruned candidates are not added back
  // (keepPrunedConnections, off by default in the paper), so a node keeps
  // fewer than m links where its neighborhood is redundant.
  for (const auto& [dist, cand] : candidates) {
    if (selected.size() >= m) break;
    bool good = true;
    for (uint32_t s : selected) {
      if (Distance(nodes_[cand].vec, nodes_[s].vec) < dist) {
        good = false;
        break;
      }
    }
    if (good) selected.push_back(cand);
  }
  return selected;
}

Status HnswIndex::Insert(uint64_t id, Vector vec) {
  if (vec.size() != options_.dim) {
    return Status::InvalidArgument(
        StrFormat("vector dim %zu != index dim %zu", vec.size(),
                  options_.dim));
  }
  if (options_.metric == VectorMetric::kCosine) NormalizeInPlace(vec);

  const int level =
      static_cast<int>(-std::log(std::max(1e-12, rng_.NextUnit())) *
                       level_lambda_);
  const uint32_t idx = static_cast<uint32_t>(nodes_.size());
  Node node;
  node.id = id;
  node.vec = std::move(vec);
  node.links.resize(level + 1);
  nodes_.push_back(std::move(node));

  if (idx == 0) {
    max_level_ = level;
    entry_point_ = 0;
    return Status::OK();
  }

  // Greedy descent through layers above the new node's level.
  uint32_t entry = GreedyDescend(nodes_[idx].vec, level);

  // Connect on layers min(level, max_level_) .. 0.
  for (int l = std::min(level, max_level_); l >= 0; --l) {
    auto near = SearchLayer(nodes_[idx].vec, entry, options_.ef_construction, l);
    std::vector<uint32_t> neighbors = SelectNeighbors(near, MaxLinks(l));
    nodes_[idx].links[l] = neighbors;
    for (uint32_t nb : neighbors) {
      nodes_[nb].links[l].push_back(idx);
      if (nodes_[nb].links[l].size() > MaxLinks(l)) {
        // Re-select the neighbor's links with the heuristic.
        std::vector<std::pair<double, uint32_t>> cands;
        cands.reserve(nodes_[nb].links[l].size());
        for (uint32_t x : nodes_[nb].links[l]) {
          cands.push_back({Distance(nodes_[nb].vec, nodes_[x].vec), x});
        }
        nodes_[nb].links[l] = SelectNeighbors(std::move(cands), MaxLinks(l));
      }
    }
    if (!near.empty()) entry = near.front().second;
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = idx;
  }
  return Status::OK();
}

Result<std::vector<VectorHit>> HnswIndex::Search(const Vector& query, size_t k,
                                                 size_t ef_search) const {
  if (query.size() != options_.dim) {
    return Status::InvalidArgument("query dim mismatch");
  }
  if (nodes_.empty() || k == 0) return std::vector<VectorHit>{};

  Vector q = query;
  if (options_.metric == VectorMetric::kCosine) NormalizeInPlace(q);

  const uint32_t entry = GreedyDescend(q, 0);
  const size_t ef = std::max(ef_search, k);
  auto near = SearchLayer(q, entry, ef, 0);
  std::vector<VectorHit> hits;
  hits.reserve(std::min(k, near.size()));
  for (size_t i = 0; i < near.size() && i < k; ++i) {
    const double score = options_.metric == VectorMetric::kCosine
                             ? 1.0 - near[i].first
                             : -near[i].first;
    hits.push_back(VectorHit{nodes_[near[i].second].id, score});
  }
  return hits;
}

size_t HnswIndex::TotalLinks() const {
  size_t n = 0;
  for (const Node& node : nodes_) {
    for (const auto& layer : node.links) n += layer.size();
  }
  return n;
}

}  // namespace lake

namespace lake {

namespace {
constexpr uint64_t kHnswMagic = 0x31484b4c;  // "LKH1"
}  // namespace

Status HnswIndex::Save(std::ostream* out) const {
  BinaryWriter w(out);
  w.WriteVarint(kHnswMagic);
  w.WriteVarint(options_.dim);
  w.WriteVarint(options_.metric == VectorMetric::kCosine ? 0 : 1);
  w.WriteVarint(options_.m);
  w.WriteVarint(options_.ef_construction);
  w.WriteFixed64(options_.seed);
  w.WriteVarint(static_cast<uint64_t>(max_level_ + 1));
  w.WriteVarint(entry_point_);
  w.WriteVarint(nodes_.size());
  for (const Node& node : nodes_) {
    w.WriteFixed64(node.id);
    w.WriteFloatVector(node.vec);
    w.WriteVarint(node.links.size());
    for (const auto& layer : node.links) w.WriteU32Vector(layer);
  }
  if (!w.ok()) return Status::IoError("write failed");
  return Status::OK();
}

Status HnswIndex::Load(std::istream* in) {
  BinaryReader r(in);
  LAKE_ASSIGN_OR_RETURN(uint64_t magic, r.ReadVarint());
  if (magic != kHnswMagic) return Status::IoError("not an HNSW index file");

  Options options;
  LAKE_ASSIGN_OR_RETURN(uint64_t dim, r.ReadVarint());
  options.dim = dim;
  LAKE_ASSIGN_OR_RETURN(uint64_t metric, r.ReadVarint());
  options.metric = metric == 0 ? VectorMetric::kCosine : VectorMetric::kL2;
  LAKE_ASSIGN_OR_RETURN(uint64_t m, r.ReadVarint());
  options.m = m;
  LAKE_ASSIGN_OR_RETURN(uint64_t efc, r.ReadVarint());
  options.ef_construction = efc;
  LAKE_ASSIGN_OR_RETURN(uint64_t seed, r.ReadFixed64());
  options.seed = seed;

  HnswIndex fresh(options);
  LAKE_ASSIGN_OR_RETURN(uint64_t levels, r.ReadVarint());
  fresh.max_level_ = static_cast<int>(levels) - 1;
  LAKE_ASSIGN_OR_RETURN(uint64_t entry, r.ReadVarint());
  fresh.entry_point_ = static_cast<uint32_t>(entry);
  LAKE_ASSIGN_OR_RETURN(uint64_t count, r.ReadVarint());
  fresh.nodes_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Node node;
    LAKE_ASSIGN_OR_RETURN(node.id, r.ReadFixed64());
    LAKE_ASSIGN_OR_RETURN(node.vec, r.ReadFloatVector());
    if (node.vec.size() != options.dim) {
      return Status::IoError("vector dimension mismatch");
    }
    LAKE_ASSIGN_OR_RETURN(uint64_t num_layers, r.ReadVarint());
    node.links.resize(num_layers);
    for (uint64_t l = 0; l < num_layers; ++l) {
      LAKE_ASSIGN_OR_RETURN(node.links[l], r.ReadU32Vector());
      for (uint32_t nb : node.links[l]) {
        if (nb >= count) return Status::IoError("link out of range");
      }
    }
    fresh.nodes_.push_back(std::move(node));
  }
  if (count > 0 && fresh.entry_point_ >= count) {
    return Status::IoError("entry point out of range");
  }
  // Search reads layer l of every node it reaches on layer l: the entry
  // point must span every layer, and a link on layer l must reach a node
  // that has layer l.
  if (count > 0 && fresh.nodes_[fresh.entry_point_].links.size() != levels) {
    return Status::IoError("entry point does not span every layer");
  }
  for (const Node& node : fresh.nodes_) {
    for (size_t l = 0; l < node.links.size(); ++l) {
      for (uint32_t nb : node.links[l]) {
        if (fresh.nodes_[nb].links.size() <= l) {
          return Status::IoError("link to a node below its layer");
        }
      }
    }
  }
  *this = std::move(fresh);
  return Status::OK();
}

}  // namespace lake
