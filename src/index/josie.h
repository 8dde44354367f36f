#ifndef LAKE_INDEX_JOSIE_H_
#define LAKE_INDEX_JOSIE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "text/vocabulary.h"
#include "util/cancel.h"
#include "util/status.h"

namespace lake {

/// JOSIE-style *exact* top-k overlap set-similarity search (Zhu et al.,
/// SIGMOD 2019): given a query column's value set Q, return the k indexed
/// sets S maximizing |Q ∩ S|, exactly.
///
/// Tokens are globally ordered rarest-first (ascending document frequency),
/// the order JOSIE uses so that posting lists read early are short and
/// prune most. The query algorithm reads posting lists in that order,
/// maintaining exact partial overlaps for seen candidates, and stops
/// reading new lists once the number of unread query tokens cannot lift an
/// unseen set above the current k-th overlap (prefix filter). Remaining
/// candidates are bounded with the position filter
///     ub(S) = partial + min(|Q|-i, |S|-pos(S))
/// and only survivors are verified by merging list suffixes. Results are
/// exact; the filters only save work.
class JosieIndex {
 public:
  struct Hit {
    uint64_t id = 0;
    uint32_t overlap = 0;
  };

  /// Counters describing how much work one query did (for the E4 bench).
  struct QueryStats {
    size_t posting_entries_read = 0;
    size_t candidates_seen = 0;
    size_t candidates_verified = 0;
    size_t lists_read = 0;
  };

  JosieIndex() = default;

  /// Stages a set of raw values under a caller id. Values are deduplicated.
  Status AddSet(uint64_t external_id, const std::vector<std::string>& values);

  /// Freezes the index: fixes the global token order and builds postings.
  Status Build();

  /// Exact top-k by overlap (descending; ties by insertion order). Sets
  /// with zero overlap are never returned. `stats` is optional. `cancel`
  /// is polled between posting lists and along the verification loop;
  /// expiry unwinds with kDeadlineExceeded / kCancelled.
  Result<std::vector<Hit>> TopK(const std::vector<std::string>& query_values,
                                size_t k, QueryStats* stats = nullptr,
                                const CancelToken* cancel = nullptr) const;

  /// Brute-force reference: scans every set. Used to validate exactness
  /// and as the E4 baseline.
  Result<std::vector<Hit>> TopKBruteForce(
      const std::vector<std::string>& query_values, size_t k) const;

  /// Persists a *built* index (compact binary; postings are rebuilt on
  /// load, so only the token dictionary and rank arrays are stored).
  Status Save(std::ostream* out) const;

  /// Restores an index persisted with Save. Replaces this instance's
  /// state; the loaded index is built and immediately queryable.
  Status Load(std::istream* in);

  size_t num_sets() const { return sets_.size(); }
  bool built() const { return built_; }
  size_t vocabulary_size() const { return vocab_.size(); }

 private:
  struct Posting {
    uint32_t set_index;  // dense internal index
    uint32_t position;   // rank position inside the set's sorted array
  };

  /// Query tokens mapped to ranks, sorted ascending (rare first), deduped.
  std::vector<uint32_t> QueryRanks(
      const std::vector<std::string>& query_values) const;

  bool built_ = false;
  Vocabulary vocab_;
  std::vector<uint64_t> external_ids_;
  // Pre-build: token-id sets. Post-build: rank arrays, sorted ascending.
  std::vector<std::vector<uint32_t>> sets_;
  std::vector<uint32_t> token_to_rank_;
  std::vector<std::vector<Posting>> postings_;  // indexed by rank
};

}  // namespace lake

#endif  // LAKE_INDEX_JOSIE_H_
