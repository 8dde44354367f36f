#include "index/lsh_ensemble.h"

#include <algorithm>
#include <cmath>

#include "index/minhash_lsh.h"
#include "util/hash.h"

namespace lake {

double ContainmentToJaccard(double containment, size_t query_cardinality,
                            size_t upper) {
  const double q = static_cast<double>(query_cardinality);
  const double u = static_cast<double>(upper);
  const double inter = containment * q;
  const double denom = q + u - inter;
  if (denom <= 0) return 1.0;
  return std::clamp(inter / denom, 0.0, 1.0);
}

Status LshEnsemble::Add(uint64_t id, MinHashSignature signature,
                        size_t cardinality) {
  if (built_) return Status::FailedPrecondition("ensemble already built");
  if (signature.num_hashes() != options_.num_hashes) {
    return Status::InvalidArgument("signature width mismatch");
  }
  entries_.push_back(Entry{id, std::move(signature), cardinality});
  return Status::OK();
}

uint64_t LshEnsemble::BandKey(const MinHashSignature& sig, size_t rows,
                              size_t band) {
  uint64_t key = Hash64(static_cast<uint64_t>(band * 131071 + rows),
                        /*seed=*/0xe17a5);
  const size_t begin = band * rows;
  for (size_t r = 0; r < rows; ++r) {
    key = HashCombine(key, sig.value(begin + r));
  }
  return key;
}

Status LshEnsemble::Build() {
  if (built_) return Status::FailedPrecondition("ensemble already built");
  built_ = true;
  if (entries_.empty()) return Status::OK();

  // Equi-depth partitioning by ascending cardinality (the paper's optimal
  // partitioning minimizes false positives under a power-law cardinality
  // distribution; equi-depth is its practical instantiation).
  std::vector<size_t> order(entries_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    if (entries_[a].cardinality != entries_[b].cardinality) {
      return entries_[a].cardinality < entries_[b].cardinality;
    }
    return entries_[a].id < entries_[b].id;
  });

  const size_t p = std::max<size_t>(
      1, std::min(options_.num_partitions, entries_.size()));
  partitions_.resize(p);

  // Power-of-two row counts <= num_hashes.
  std::vector<size_t> row_choices;
  for (size_t r = 1; r <= options_.num_hashes; r *= 2) row_choices.push_back(r);

  const size_t per = (entries_.size() + p - 1) / p;
  for (size_t pi = 0; pi < p; ++pi) {
    Partition& part = partitions_[pi];
    const size_t begin = pi * per;
    const size_t end = std::min(entries_.size(), begin + per);
    if (begin >= end) {
      // Empty tail partition (more partitions than entries); keep it inert.
      part.lower = part.upper = 0;
      continue;
    }
    part.lower = entries_[order[begin]].cardinality;
    part.upper = entries_[order[end - 1]].cardinality;
    part.bandings.reserve(row_choices.size());
    for (size_t rows : row_choices) {
      Banding banding;
      banding.rows = rows;
      banding.tables.resize(options_.num_hashes / rows);
      part.bandings.push_back(std::move(banding));
    }
    for (size_t i = begin; i < end; ++i) {
      const Entry& e = entries_[order[i]];
      for (Banding& banding : part.bandings) {
        for (size_t band = 0; band < banding.tables.size(); ++band) {
          banding.tables[band][BandKey(e.signature, banding.rows, band)]
              .push_back(e.id);
        }
      }
    }
  }
  return Status::OK();
}

Result<std::vector<uint64_t>> LshEnsemble::Query(const MinHashSignature& query,
                                                 size_t query_cardinality,
                                                 double threshold) const {
  if (!built_) return Status::FailedPrecondition("call Build() first");
  if (query.num_hashes() != options_.num_hashes) {
    return Status::InvalidArgument("signature width mismatch");
  }
  if (query_cardinality == 0) return std::vector<uint64_t>{};
  threshold = std::clamp(threshold, 0.0, 1.0);

  std::vector<uint64_t> out;
  for (const Partition& part : partitions_) {
    if (part.bandings.empty()) continue;
    // Highest achievable containment in this partition is upper/|Q|.
    const double max_containment =
        std::min(1.0, static_cast<double>(part.upper) /
                          static_cast<double>(query_cardinality));
    if (max_containment < threshold) continue;

    const double j =
        ContainmentToJaccard(threshold, query_cardinality, part.upper);
    // Tune (r, b) over the bandings this partition actually materialized:
    // for each available row count, every band-prefix length is a valid
    // probe plan; pick the (r, b) minimizing the weighted FP/FN area at
    // the partition's equivalent Jaccard threshold (false negatives
    // weighted higher, mirroring the paper's recall goal).
    const Banding* chosen = &part.bandings[0];
    size_t bands = 1;
    double best_err = 1e300;
    for (const Banding& banding : part.bandings) {
      // Power-of-two probe lengths (plus the full prefix) are enough to
      // land near the optimum and keep per-query tuning cheap.
      for (size_t b = 1; b <= banding.tables.size(); b *= 2) {
        for (size_t probe : {b, banding.tables.size()}) {
          const double err = LshProbeError(j, probe, banding.rows,
                                           /*fp_weight=*/0.4,
                                           /*fn_weight=*/0.6);
          if (err < best_err) {
            best_err = err;
            chosen = &banding;
            bands = probe;
          }
        }
      }
    }
    for (size_t band = 0; band < bands; ++band) {
      auto it = chosen->tables[band].find(BandKey(query, chosen->rows, band));
      if (it == chosen->tables[band].end()) continue;
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace lake
