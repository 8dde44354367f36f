#ifndef LAKE_SERVE_METRICS_H_
#define LAKE_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/log_buckets.h"
#include "util/serialize.h"
#include "util/status.h"

namespace lake::serve {

/// Monotonic counter. Add/value are lock-free; many threads may report.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins level metric (degraded flag, admission limit, queue
/// length). Set/value are lock-free.
class Gauge {
 public:
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Fixed-memory log-scale latency histogram (microsecond samples) over
/// the quarter-octave buckets of util/log_buckets.h, so relative error of
/// any extracted quantile is bounded by ~12.5% while the whole histogram
/// is 256 atomic slots. Record is lock-free.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 256;
  static_assert(kNumBuckets >= kLogBuckets);

  /// Records one latency sample in microseconds (negative clamps to 0).
  void Record(double micros);

  struct Snapshot {
    uint64_t count = 0;
    double sum_micros = 0;
    double min_micros = 0;  // exact smallest sample; 0 when empty
    double max_micros = 0;
    std::array<uint64_t, kNumBuckets> buckets{};

    double mean() const { return count == 0 ? 0 : sum_micros / count; }
    /// Quantile in microseconds by interpolation inside the hit bucket.
    /// Edge cases are exact, not interpolated: an empty histogram returns
    /// 0 for every q, q<=0 returns the tracked minimum, q>=1 (and any
    /// out-of-range q) the tracked maximum, NaN is treated as 0, and
    /// interior quantiles are clamped into [min, max] so interpolation
    /// never extrapolates past an observed sample.
    double Quantile(double q) const;
    double p50() const { return Quantile(0.50); }
    double p95() const { return Quantile(0.95); }
    double p99() const { return Quantile(0.99); }
  };

  Snapshot Snap() const;

  /// Live quantile in microseconds (0 when empty): snapshots the buckets
  /// and interpolates inside the hit bucket, exactly Snapshot::Quantile.
  /// Cheap enough for per-query control decisions (the brownout budget
  /// check compares the remaining deadline against a method's p95).
  double Percentile(double q) const { return Snap().Quantile(q); }

  /// Samples recorded so far (control paths gate Percentile on a minimum
  /// volume before trusting it).
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Bucket index for a microsecond value, and the inclusive lower bound /
  /// exclusive upper bound of a bucket (exposed for tests): the shared
  /// util/log_buckets.h mapping, which every uint64 fits without a clamp.
  static size_t BucketIndex(uint64_t micros) { return LogBucketIndex(micros); }
  static uint64_t BucketLowerBound(size_t index) {
    return LogBucketLowerBound(index);
  }

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_micros_{0};
  std::atomic<uint64_t> min_micros_{UINT64_MAX};  // UINT64_MAX = no samples
  std::atomic<uint64_t> max_micros_{0};
};

class MetricsRegistry;

/// A family of counters sharing one name and distinguished by a label
/// value (e.g. cluster.shard.queries labeled by shard id) — the supported
/// way to emit per-shard / per-replica metrics instead of concatenating
/// names at every call site. WithLabel creates on first use and returns a
/// stable pointer callers cache; each labeled member is exported through
/// the owning registry as `name{label_key=value}`, so every existing
/// snapshot/text/JSON/binary consumer sees it as a plain counter.
class CounterFamily {
 public:
  Counter* WithLabel(const std::string& value);
  /// Convenience for integer labels (shard/replica indexes).
  Counter* WithLabel(uint64_t value);

 private:
  friend class MetricsRegistry;
  CounterFamily(MetricsRegistry* registry, std::string name,
                std::string label_key)
      : registry_(registry),
        name_(std::move(name)),
        label_key_(std::move(label_key)) {}

  MetricsRegistry* registry_;
  std::string name_;
  std::string label_key_;
  std::mutex mu_;
  std::unordered_map<std::string, Counter*> by_label_;
};

/// Labeled gauges, same contract as CounterFamily.
class GaugeFamily {
 public:
  Gauge* WithLabel(const std::string& value);
  Gauge* WithLabel(uint64_t value);

 private:
  friend class MetricsRegistry;
  GaugeFamily(MetricsRegistry* registry, std::string name,
              std::string label_key)
      : registry_(registry),
        name_(std::move(name)),
        label_key_(std::move(label_key)) {}

  MetricsRegistry* registry_;
  std::string name_;
  std::string label_key_;
  std::mutex mu_;
  std::unordered_map<std::string, Gauge*> by_label_;
};

/// Registry of named counters and latency histograms the serving layer
/// (executor, cache, engine hooks) reports into. Get* creates on first use
/// and returns a stable pointer callers cache; snapshots are consistent
/// per-metric (relaxed across metrics, which is fine for monitoring).
class MetricsRegistry {
 public:
  struct HistogramRow {
    std::string name;
    uint64_t count = 0;
    double mean_us = 0;
    double p50_us = 0;
    double p95_us = 0;
    double p99_us = 0;
    double max_us = 0;
  };

  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;  // name-sorted
    std::vector<std::pair<std::string, uint64_t>> gauges;    // name-sorted
    std::vector<HistogramRow> histograms;                    // name-sorted
  };

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  /// Labeled families. The (name, label_key) pair identifies one family;
  /// members flatten into the registry as `name{label_key=value}` (see
  /// FlatName), so exports and the binary snapshot need no new schema.
  CounterFamily* GetCounterFamily(const std::string& name,
                                  const std::string& label_key);
  GaugeFamily* GetGaugeFamily(const std::string& name,
                              const std::string& label_key);

  /// Flattened export name of one family member:
  /// `cluster.shard.queries{shard=3}`.
  static std::string FlatName(const std::string& name,
                              const std::string& label_key,
                              const std::string& value);

  Snapshot Snap() const;

  /// Human-readable dump, one metric per line.
  std::string ToText() const;
  /// Single-object JSON dump ({"counters":{...},"histograms":{...}}).
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  /// Families keyed by "name\x1f[label_key]"; members live in the plain
  /// maps above under their flattened names.
  std::map<std::string, std::unique_ptr<CounterFamily>> counter_families_;
  std::map<std::string, std::unique_ptr<GaugeFamily>> gauge_families_;
};

/// Binary round-trip of a registry snapshot (BinaryWriter/BinaryReader),
/// used to ship metrics off-process and to archive bench runs.
Status WriteSnapshot(const MetricsRegistry::Snapshot& snap, BinaryWriter* w);
Result<MetricsRegistry::Snapshot> ReadSnapshot(BinaryReader* r);

}  // namespace lake::serve

#endif  // LAKE_SERVE_METRICS_H_
