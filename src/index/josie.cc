#include "index/josie.h"

#include <algorithm>
#include <unordered_map>

#include "text/normalizer.h"
#include "util/serialize.h"
#include "util/top_k.h"

namespace lake {

Status JosieIndex::AddSet(uint64_t external_id,
                          const std::vector<std::string>& values) {
  if (built_) return Status::FailedPrecondition("index already built");
  std::vector<uint32_t> tokens;
  tokens.reserve(values.size());
  for (const std::string& v : values) {
    const std::string norm = NormalizeValue(v);
    if (norm.empty()) continue;
    tokens.push_back(vocab_.GetOrAdd(norm));
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  for (uint32_t t : tokens) vocab_.IncrementFrequency(t);
  external_ids_.push_back(external_id);
  sets_.push_back(std::move(tokens));
  return Status::OK();
}

Status JosieIndex::Build() {
  if (built_) return Status::FailedPrecondition("index already built");
  built_ = true;

  // Global rarest-first order: rank 0 is the least frequent token.
  const std::vector<uint32_t> by_freq = vocab_.IdsByAscendingFrequency();
  token_to_rank_.assign(vocab_.size(), 0);
  for (uint32_t rank = 0; rank < by_freq.size(); ++rank) {
    token_to_rank_[by_freq[rank]] = rank;
  }

  postings_.assign(vocab_.size(), {});
  for (uint32_t s = 0; s < sets_.size(); ++s) {
    for (uint32_t& t : sets_[s]) t = token_to_rank_[t];
    std::sort(sets_[s].begin(), sets_[s].end());
    for (uint32_t pos = 0; pos < sets_[s].size(); ++pos) {
      postings_[sets_[s][pos]].push_back(Posting{s, pos});
    }
  }
  return Status::OK();
}

std::vector<uint32_t> JosieIndex::QueryRanks(
    const std::vector<std::string>& query_values) const {
  std::vector<uint32_t> ranks;
  ranks.reserve(query_values.size());
  for (const std::string& v : query_values) {
    const std::string norm = NormalizeValue(v);
    if (norm.empty()) continue;
    const int64_t id = vocab_.Find(norm);
    if (id < 0) continue;  // token absent from the lake: contributes nothing
    ranks.push_back(token_to_rank_[static_cast<uint32_t>(id)]);
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  return ranks;
}

Result<std::vector<JosieIndex::Hit>> JosieIndex::TopK(
    const std::vector<std::string>& query_values, size_t k, QueryStats* stats,
    const CancelToken* cancel) const {
  if (!built_) return Status::FailedPrecondition("call Build() first");
  if (k == 0) return std::vector<Hit>{};
  QueryStats local;

  const std::vector<uint32_t> q = QueryRanks(query_values);
  // partial[s]: exact overlap among query tokens read so far.
  // last_pos[s]: the set position of the last matched token (for the
  // position filter).
  std::unordered_map<uint32_t, uint32_t> partial;
  std::unordered_map<uint32_t, uint32_t> last_pos;

  ::lake::TopK<uint32_t> heap(k);  // holds set indices scored by exact overlap

  // Read lists rare-first, accumulating exact partial counts. The k-th
  // largest partial count is a lower bound on the k-th best final overlap;
  // once the number of unread lists (the max overlap of any *unseen* set)
  // cannot exceed it, no new candidate can enter the top-k and reading
  // stops (prefix filter). Seen candidates are finished by verification.
  std::vector<uint32_t> scratch;
  size_t read = 0;
  for (; read < q.size(); ++read) {
    if (cancel != nullptr && ShouldCheck(read, 16)) {
      LAKE_RETURN_IF_ERROR(cancel->Check());
    }
    const size_t unseen_max = q.size() - read;
    if (partial.size() >= k) {
      scratch.clear();
      scratch.reserve(partial.size());
      for (const auto& [s, count] : partial) scratch.push_back(count);
      std::nth_element(scratch.begin(), scratch.begin() + (k - 1),
                       scratch.end(), std::greater<uint32_t>());
      const uint32_t kth_partial = scratch[k - 1];
      if (unseen_max <= kth_partial) break;
    }
    const auto& list = postings_[q[read]];
    ++local.lists_read;
    local.posting_entries_read += list.size();
    for (const Posting& p : list) {
      auto [it, fresh] = partial.try_emplace(p.set_index, 0);
      if (fresh) ++local.candidates_seen;
      ++it->second;
      last_pos[p.set_index] = p.position;
    }
  }

  if (read == q.size()) {
    // All lists read: partial counts are exact overlaps.
    for (const auto& [s, count] : partial) {
      heap.Push(static_cast<double>(count), s);
    }
  } else {
    // Position-filter verification for every seen candidate: bound the
    // remaining overlap by both the unread query suffix and the candidate's
    // own suffix beyond its last matched position.
    // First seed the heap with candidates that cannot grow (cheap wins).
    const size_t q_remaining = q.size() - read;
    std::vector<std::pair<uint32_t, uint32_t>> pending;  // (set, partial)
    pending.reserve(partial.size());
    for (const auto& [s, count] : partial) pending.push_back({s, count});
    // Process most-promising first so the heap threshold rises quickly.
    std::sort(pending.begin(), pending.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    size_t processed = 0;
    for (const auto& [s, count] : pending) {
      if (cancel != nullptr && ShouldCheck(processed++, 64)) {
        LAKE_RETURN_IF_ERROR(cancel->Check());
      }
      const std::vector<uint32_t>& set = sets_[s];
      const size_t set_remaining = set.size() - (last_pos.at(s) + 1);
      const double upper =
          static_cast<double>(count) +
          static_cast<double>(std::min(q_remaining, set_remaining));
      if (heap.Full() && upper <= heap.Threshold(0.0)) continue;
      ++local.candidates_verified;
      // Exact suffix merge: unread query ranks vs the set's ranks.
      uint32_t extra = 0;
      size_t i = read, j = 0;
      while (i < q.size() && j < set.size()) {
        if (q[i] == set[j]) {
          ++extra;
          ++i;
          ++j;
        } else if (q[i] < set[j]) {
          ++i;
        } else {
          ++j;
        }
      }
      heap.Push(static_cast<double>(count + extra), s);
    }
  }

  std::vector<Hit> hits;
  for (auto& [score, s] : heap.Take()) {
    if (score <= 0) continue;
    hits.push_back(Hit{external_ids_[s], static_cast<uint32_t>(score)});
  }
  if (stats != nullptr) *stats = local;
  return hits;
}

Result<std::vector<JosieIndex::Hit>> JosieIndex::TopKBruteForce(
    const std::vector<std::string>& query_values, size_t k) const {
  if (!built_) return Status::FailedPrecondition("call Build() first");
  const std::vector<uint32_t> q = QueryRanks(query_values);
  ::lake::TopK<uint32_t> heap(k);
  for (uint32_t s = 0; s < sets_.size(); ++s) {
    const std::vector<uint32_t>& set = sets_[s];
    uint32_t overlap = 0;
    size_t i = 0, j = 0;
    while (i < q.size() && j < set.size()) {
      if (q[i] == set[j]) {
        ++overlap;
        ++i;
        ++j;
      } else if (q[i] < set[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    if (overlap > 0) heap.Push(overlap, s);
  }
  std::vector<Hit> hits;
  for (auto& [score, s] : heap.Take()) {
    hits.push_back(Hit{external_ids_[s], static_cast<uint32_t>(score)});
  }
  return hits;
}

}  // namespace lake

namespace lake {

namespace {
constexpr uint64_t kJosieMagic = 0x314a4b4c;  // "LKJ1"
}  // namespace

Status JosieIndex::Save(std::ostream* out) const {
  if (!built_) return Status::FailedPrecondition("save requires a built index");
  BinaryWriter w(out);
  w.WriteVarint(kJosieMagic);
  w.WriteVarint(vocab_.size());
  for (uint32_t id = 0; id < vocab_.size(); ++id) {
    w.WriteString(vocab_.token(id));
    w.WriteVarint(vocab_.frequency(id));
  }
  w.WriteU64Vector(external_ids_);
  w.WriteVarint(sets_.size());
  for (const auto& set : sets_) w.WriteU32Vector(set);
  w.WriteU32Vector(token_to_rank_);
  if (!w.ok()) return Status::IoError("write failed");
  return Status::OK();
}

Status JosieIndex::Load(std::istream* in) {
  BinaryReader r(in);
  LAKE_ASSIGN_OR_RETURN(uint64_t magic, r.ReadVarint());
  if (magic != kJosieMagic) return Status::IoError("not a JOSIE index file");

  JosieIndex fresh;
  LAKE_ASSIGN_OR_RETURN(uint64_t vocab_size, r.ReadVarint());
  for (uint64_t id = 0; id < vocab_size; ++id) {
    LAKE_ASSIGN_OR_RETURN(std::string token, r.ReadString());
    LAKE_ASSIGN_OR_RETURN(uint64_t freq, r.ReadVarint());
    const uint32_t got = fresh.vocab_.GetOrAdd(token);
    if (got != id) return Status::IoError("duplicate token in dictionary");
    fresh.vocab_.SetFrequency(got, freq);
  }
  LAKE_ASSIGN_OR_RETURN(fresh.external_ids_, r.ReadU64Vector());
  LAKE_ASSIGN_OR_RETURN(uint64_t num_sets, r.ReadVarint());
  if (num_sets != fresh.external_ids_.size()) {
    return Status::IoError("set/id count mismatch");
  }
  fresh.sets_.reserve(num_sets);
  for (uint64_t s = 0; s < num_sets; ++s) {
    LAKE_ASSIGN_OR_RETURN(std::vector<uint32_t> set, r.ReadU32Vector());
    for (uint32_t rank : set) {
      if (rank >= vocab_size) return Status::IoError("rank out of range");
    }
    fresh.sets_.push_back(std::move(set));
  }
  LAKE_ASSIGN_OR_RETURN(fresh.token_to_rank_, r.ReadU32Vector());
  if (fresh.token_to_rank_.size() != vocab_size) {
    return Status::IoError("rank table size mismatch");
  }

  // Rebuild postings from the rank arrays.
  fresh.postings_.assign(vocab_size, {});
  for (uint32_t s = 0; s < fresh.sets_.size(); ++s) {
    const auto& set = fresh.sets_[s];
    for (uint32_t pos = 0; pos < set.size(); ++pos) {
      fresh.postings_[set[pos]].push_back(Posting{s, pos});
    }
  }
  fresh.built_ = true;
  *this = std::move(fresh);
  return Status::OK();
}

}  // namespace lake
