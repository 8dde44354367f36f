// Shared infrastructure of the LakeFind discovery benchmark: command-line
// arguments, the run report, guarded percentiles, the span recorder of the
// traced run, and small hashing/timing helpers. Each workload lives in its
// own source file and fills one Report.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "search/query.h"
#include "serve/metrics.h"
#include "serve/query_service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Untraced runs repeat their timed phase this often and report medians.
constexpr int kRepetitions = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

/// A run failure that must stop the benchmark without a result line: a
/// percentile guard tripped or the workload could not be set up. Wrong
/// answers and failed operations are reported through Report instead.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One reported number with its unit and the sample count behind it.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// One timed phase's end-to-end metrics, and the stability-guard failures
/// of its latency percentiles (each naming workload, metric and sample
/// count) by metric name.
struct PhaseStats {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> guard_failures;
};

/// Everything one workload run reports. `e2e` and `layers` are the
/// contract metrics (untraced and traced run respectively); `extra` holds
/// workload-specific end-to-end numbers that only appear in the run record.
struct Report {
  std::string workload;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> extra;
  std::map<std::string, Metric> layers;
  /// Digests and exact counts the determinism test compares across runs.
  std::map<std::string, std::string> record;
  /// Layer -> share of request time (traced run only).
  std::map<std::string, double> layer_shares;
  /// First failing checks, reported verbatim.
  std::vector<std::string> failures;

  void Fail(const std::string& what);
};

/// Unguarded nearest-rank percentile (per-layer metrics and diagnostics).
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Each layer's share of request time from per-request self times: the
/// layer's median self time over the sum of all layers' medians (medians,
/// so a request that stalled behind a writer does not dominate a share).
std::map<std::string, double> LayerShares(
    const std::map<std::string, std::vector<double>>& self_us);

/// Per-metric median across the phases of a run, which replay one
/// operation sequence (sample counts add up). A burst of noise from outside
/// the process then moves a minority of phases, not the reported value. A
/// percentile whose guard failed in a phase is left out of that metric's
/// median: a gap between latency ranges shows in every phase of the same
/// sequence, while a noise burst that stretches a tail shows in a minority.
/// Throws BenchError with the guard's failure when it failed in half of the
/// phases or more (so in the only phase of a one-phase run).
std::map<std::string, Metric> MedianAcross(
    const std::vector<PhaseStats>& phases);

/// Adds `name` = percentile q of `values_ms` to `phase`, checked by the
/// two stability guards: at least ten samples must lie beyond the reported
/// rank, and the rank must not sit on a gap between two latency ranges (the
/// values one rank-percent either side may differ by at most 1.5x; for
/// upper tails the window narrows to a quarter of the distance to the end
/// of the distribution). A failed guard is recorded in the phase for
/// MedianAcross to judge.
void AddLatency(PhaseStats* phase,
                const std::string& workload, const std::string& name,
                double q, const std::vector<double>& values_ms);

/// FNV-1a style 64-bit mixing for answer and lake digests.
uint64_t Mix(uint64_t h, uint64_t v);
uint64_t HashString(uint64_t h, const std::string& s);
uint64_t HashDouble(uint64_t h, double v);
std::string Hex(uint64_t v);

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

/// Reads a counter's value (0 when the registry never created it).
uint64_t CounterValue(lake::serve::MetricsRegistry& metrics,
                      const std::string& name);

/// Sum of every counter whose flattened name starts with `prefix`.
uint64_t CounterPrefixSum(lake::serve::MetricsRegistry& metrics,
                          const std::string& prefix);

/// Span recorder of the traced run. A span is one timed call into a layer;
/// spans of one request share its id, and a span's parent is the span of
/// the next-outer layer call for the same request. Spans stay in memory
/// and are written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  // index of the parent span, -1 for a root
    uint64_t request = 0;
  };

  /// Records one finished span and returns its index.
  int64_t Record(const std::string& name, Clock::time_point start,
                 Clock::time_point end, uint64_t request, int64_t parent);
  /// Sets the parent of an already recorded span.
  void SetParent(int64_t span, int64_t parent);
  /// Writes one JSON object per span to `path`.
  void WriteJsonl(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// Timing-independence assertions: after the timed phase none of the
/// service's or cluster's timing-dependent behaviours may have fired.
/// Records each offending counter as a failure.
void AssertTimingIndependent(Report* report,
                             lake::serve::MetricsRegistry& service,
                             lake::serve::MetricsRegistry* cluster);

/// Records a run's outcome: the attempted and failed operation counts,
/// ok_ratio (operations with a full answer) and exact_ratio (checked answers
/// that matched) as end-to-end metrics and in the run record, and the answer
/// digest. Fails the run when any operation returned no full answer.
void RecordOutcome(Report* report, uint64_t attempted, uint64_t ok,
                   uint64_t checked, uint64_t exact, uint64_t answer_digest);

/// Digest of a service answer by ids and scores (stable within one engine
/// generation), used to compare repeated answers to the same query.
uint64_t ResponseDigest(const lake::serve::QueryResponse& r);

/// An answer that is OK, complete (no missing shard), not degraded by a
/// brownout and not approximate unless asked for.
bool FullAnswer(const lake::serve::QueryResponse& r, bool approx_ok = false);

/// Traced-run bookkeeping of QueryService::Options::pre_execute_hook: the
/// hook stamps when a request leaves the queue, keyed by its cache key, and
/// the client that submitted it takes the stamp after the call returns.
class HookTimes {
 public:
  /// Installs the hook into `options`; call Attach once the service exists.
  void Install(lake::serve::QueryService::Options* options);
  void Attach(const lake::serve::QueryService* service) { service_ = service; }
  void Enable(bool on) { enabled_.store(on, std::memory_order_release); }
  /// Removes and returns the oldest stamp for this request, if any.
  bool Take(const lake::serve::QueryRequest& request, Clock::time_point* out);

 private:
  std::atomic<bool> enabled_{false};
  const lake::serve::QueryService* service_ = nullptr;
  std::mutex mu_;
  std::unordered_map<uint64_t, std::deque<Clock::time_point>> stamps_;
};

// --- Workloads -------------------------------------------------------------

Report RunLookupHot(const Args& args);
Report RunDiscoverMixed(const Args& args);
Report RunClusterIngest(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
