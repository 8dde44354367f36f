#include "chaos/invariants.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

namespace lake::chaos {

namespace fs = std::filesystem;

std::vector<std::string> CheckZeroLoss(
    const WorkloadOracle& oracle,
    const std::map<std::string, uint32_t>& lake_digests) {
  return oracle.Violations(lake_digests);
}

std::vector<std::string> CheckConvergence(
    const std::vector<cluster::ClusterEngine::ShardHealth>& health) {
  std::vector<std::string> out;
  for (const auto& sh : health) {
    if (!sh.digests_agree) {
      out.push_back("convergence: shard " + std::to_string(sh.shard) +
                    " replica digests still disagree after scrub");
    }
    for (const auto& r : sh.replicas) {
      if (!r.alive) {
        out.push_back("convergence: shard " + std::to_string(sh.shard) +
                      " replica " + std::to_string(r.replica) +
                      " is dead at quiesce");
      } else if (r.stale) {
        out.push_back("convergence: shard " + std::to_string(sh.shard) +
                      " replica " + std::to_string(r.replica) +
                      " is still stale after scrub");
      }
    }
  }
  return out;
}

std::vector<std::string> CheckSnapshotMonotonicity(
    const std::string& store_root,
    std::map<std::string, uint64_t>* previous) {
  std::vector<std::string> out;
  if (store_root.empty() || !fs::exists(store_root)) return out;
  // Highest committed generation per snapshot directory, read straight
  // off the filenames (snap-<gen>.lks). Pruning removes old generations
  // but the max must never move backwards while the directory exists.
  std::map<std::string, uint64_t> current;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(store_root, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    if (name.rfind("snap-", 0) != 0) continue;
    const size_t dot = name.find('.');
    if (dot == std::string::npos) continue;
    uint64_t gen = 0;
    try {
      gen = std::stoull(name.substr(5, dot - 5));
    } catch (...) {
      continue;
    }
    const std::string dir = it->path().parent_path().string();
    uint64_t& max = current[dir];
    if (gen > max) max = gen;
  }
  for (const auto& [dir, prev_max] : *previous) {
    auto cur = current.find(dir);
    if (cur == current.end()) continue;  // dir retired/removed — fine
    if (cur->second < prev_max) {
      std::ostringstream msg;
      msg << "snapshot monotonicity: " << dir << " regressed from generation "
          << prev_max << " to " << cur->second;
      out.push_back(msg.str());
    }
  }
  for (const auto& [dir, max] : current) {
    uint64_t& prev = (*previous)[dir];
    if (max > prev) prev = max;
  }
  return out;
}

Watchdog::Watchdog(uint64_t budget_ms, std::string context)
    : context_(std::move(context)),
      thread_(std::chrono::milliseconds(budget_ms), [this, budget_ms](bool) {
        std::lock_guard<std::mutex> lock(mu_);
        std::fprintf(stderr,
                     "chaos watchdog: run exceeded %llu ms — treating the "
                     "hang as a failure\ncontext: %s\n",
                     static_cast<unsigned long long>(budget_ms),
                     context_.c_str());
        std::fflush(stderr);
        std::abort();
      }) {}

void Watchdog::SetContext(std::string context) {
  std::lock_guard<std::mutex> lock(mu_);
  context_ = std::move(context);
}

}  // namespace lake::chaos
