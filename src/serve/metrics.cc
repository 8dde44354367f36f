#include "serve/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace lake::serve {

void LatencyHistogram::Record(double micros) {
  const uint64_t us =
      micros <= 0 ? 0 : static_cast<uint64_t>(std::llround(micros));
  buckets_[BucketIndex(us)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(us, std::memory_order_relaxed);
  uint64_t prev = max_micros_.load(std::memory_order_relaxed);
  while (prev < us &&
         !max_micros_.compare_exchange_weak(prev, us,
                                            std::memory_order_relaxed)) {
  }
  uint64_t prev_min = min_micros_.load(std::memory_order_relaxed);
  while (prev_min > us &&
         !min_micros_.compare_exchange_weak(prev_min, us,
                                            std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::Snap() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum_micros =
      static_cast<double>(sum_micros_.load(std::memory_order_relaxed));
  const uint64_t min = min_micros_.load(std::memory_order_relaxed);
  s.min_micros = min == UINT64_MAX ? 0 : static_cast<double>(min);
  s.max_micros =
      static_cast<double>(max_micros_.load(std::memory_order_relaxed));
  for (size_t i = 0; i < kNumBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

double LatencyHistogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0;
  if (std::isnan(q)) q = 0;
  // The extremes are tracked exactly; interpolation would only blur them.
  if (q <= 0.0) return min_micros;
  if (q >= 1.0) return max_micros;
  // Never extrapolate past an observed sample.
  return std::clamp(LogBucketQuantile(buckets, q), min_micros, max_micros);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<LatencyHistogram>()).first;
  }
  return it->second.get();
}

std::string MetricsRegistry::FlatName(const std::string& name,
                                      const std::string& label_key,
                                      const std::string& value) {
  return name + "{" + label_key + "=" + value + "}";
}

CounterFamily* MetricsRegistry::GetCounterFamily(
    const std::string& name, const std::string& label_key) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = name + "\x1f" + label_key;
  auto it = counter_families_.find(key);
  if (it == counter_families_.end()) {
    it = counter_families_
             .emplace(key, std::unique_ptr<CounterFamily>(
                               new CounterFamily(this, name, label_key)))
             .first;
  }
  return it->second.get();
}

GaugeFamily* MetricsRegistry::GetGaugeFamily(const std::string& name,
                                             const std::string& label_key) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = name + "\x1f" + label_key;
  auto it = gauge_families_.find(key);
  if (it == gauge_families_.end()) {
    it = gauge_families_
             .emplace(key, std::unique_ptr<GaugeFamily>(
                               new GaugeFamily(this, name, label_key)))
             .first;
  }
  return it->second.get();
}

Counter* CounterFamily::WithLabel(const std::string& value) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_label_.find(value);
    if (it != by_label_.end()) return it->second;
  }
  // Resolve outside our lock: the registry lock nests inside nothing here
  // (GetCounterFamily never calls back into a family).
  Counter* counter = registry_->GetCounter(
      MetricsRegistry::FlatName(name_, label_key_, value));
  std::lock_guard<std::mutex> lock(mu_);
  by_label_.emplace(value, counter);
  return counter;
}

Counter* CounterFamily::WithLabel(uint64_t value) {
  return WithLabel(std::to_string(value));
}

Gauge* GaugeFamily::WithLabel(const std::string& value) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_label_.find(value);
    if (it != by_label_.end()) return it->second;
  }
  Gauge* gauge = registry_->GetGauge(
      MetricsRegistry::FlatName(name_, label_key_, value));
  std::lock_guard<std::mutex> lock(mu_);
  by_label_.emplace(value, gauge);
  return gauge;
}

Gauge* GaugeFamily::WithLabel(uint64_t value) {
  return WithLabel(std::to_string(value));
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  Snapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace_back(name, counter->value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.emplace_back(name, gauge->value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    const LatencyHistogram::Snapshot s = hist->Snap();
    out.histograms.push_back(HistogramRow{name, s.count, s.mean(), s.p50(),
                                          s.p95(), s.p99(), s.max_micros});
  }
  return out;
}

std::string MetricsRegistry::ToText() const {
  const Snapshot snap = Snap();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    out += StrFormat("%s: %llu\n", name.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    out += StrFormat("%s: %llu\n", name.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const HistogramRow& h : snap.histograms) {
    out += StrFormat(
        "%s: count=%llu mean=%.1fus p50=%.1fus p95=%.1fus p99=%.1fus "
        "max=%.1fus\n",
        h.name.c_str(), static_cast<unsigned long long>(h.count), h.mean_us,
        h.p50_us, h.p95_us, h.p99_us, h.max_us);
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  const Snapshot snap = Snap();
  std::string out = "{\"counters\":{";
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    if (i != 0) out += ",";
    out += StrFormat(
        "\"%s\":%llu", snap.counters[i].first.c_str(),
        static_cast<unsigned long long>(snap.counters[i].second));
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i != 0) out += ",";
    out += StrFormat("\"%s\":%llu", snap.gauges[i].first.c_str(),
                     static_cast<unsigned long long>(snap.gauges[i].second));
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramRow& h = snap.histograms[i];
    if (i != 0) out += ",";
    out += StrFormat(
        "\"%s\":{\"count\":%llu,\"mean_us\":%.1f,\"p50_us\":%.1f,"
        "\"p95_us\":%.1f,\"p99_us\":%.1f,\"max_us\":%.1f}",
        h.name.c_str(), static_cast<unsigned long long>(h.count), h.mean_us,
        h.p50_us, h.p95_us, h.p99_us, h.max_us);
  }
  out += "}}";
  return out;
}

namespace {
constexpr uint64_t kSnapshotMagicV1 = 0x314d534c;  // "LSM1" — no gauges
constexpr uint64_t kSnapshotMagic = 0x324d534c;    // "LSM2"
}  // namespace

Status WriteSnapshot(const MetricsRegistry::Snapshot& snap, BinaryWriter* w) {
  w->WriteVarint(kSnapshotMagic);
  w->WriteVarint(snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    w->WriteString(name);
    w->WriteVarint(value);
  }
  w->WriteVarint(snap.gauges.size());
  for (const auto& [name, value] : snap.gauges) {
    w->WriteString(name);
    w->WriteVarint(value);
  }
  w->WriteVarint(snap.histograms.size());
  for (const MetricsRegistry::HistogramRow& h : snap.histograms) {
    w->WriteString(h.name);
    w->WriteVarint(h.count);
    w->WriteDouble(h.mean_us);
    w->WriteDouble(h.p50_us);
    w->WriteDouble(h.p95_us);
    w->WriteDouble(h.p99_us);
    w->WriteDouble(h.max_us);
  }
  if (!w->ok()) return Status::IoError("metrics snapshot write failed");
  return Status::OK();
}

Result<MetricsRegistry::Snapshot> ReadSnapshot(BinaryReader* r) {
  LAKE_ASSIGN_OR_RETURN(uint64_t magic, r->ReadVarint());
  if (magic != kSnapshotMagic && magic != kSnapshotMagicV1) {
    return Status::IoError("not a metrics snapshot");
  }
  MetricsRegistry::Snapshot snap;
  LAKE_ASSIGN_OR_RETURN(uint64_t num_counters, r->ReadVarint());
  snap.counters.reserve(num_counters);
  for (uint64_t i = 0; i < num_counters; ++i) {
    LAKE_ASSIGN_OR_RETURN(std::string name, r->ReadString());
    LAKE_ASSIGN_OR_RETURN(uint64_t value, r->ReadVarint());
    snap.counters.emplace_back(std::move(name), value);
  }
  if (magic == kSnapshotMagic) {  // v1 predates gauges
    LAKE_ASSIGN_OR_RETURN(uint64_t num_gauges, r->ReadVarint());
    snap.gauges.reserve(num_gauges);
    for (uint64_t i = 0; i < num_gauges; ++i) {
      LAKE_ASSIGN_OR_RETURN(std::string name, r->ReadString());
      LAKE_ASSIGN_OR_RETURN(uint64_t value, r->ReadVarint());
      snap.gauges.emplace_back(std::move(name), value);
    }
  }
  LAKE_ASSIGN_OR_RETURN(uint64_t num_hists, r->ReadVarint());
  snap.histograms.reserve(num_hists);
  for (uint64_t i = 0; i < num_hists; ++i) {
    MetricsRegistry::HistogramRow h;
    LAKE_ASSIGN_OR_RETURN(h.name, r->ReadString());
    LAKE_ASSIGN_OR_RETURN(h.count, r->ReadVarint());
    LAKE_ASSIGN_OR_RETURN(h.mean_us, r->ReadDouble());
    LAKE_ASSIGN_OR_RETURN(h.p50_us, r->ReadDouble());
    LAKE_ASSIGN_OR_RETURN(h.p95_us, r->ReadDouble());
    LAKE_ASSIGN_OR_RETURN(h.p99_us, r->ReadDouble());
    LAKE_ASSIGN_OR_RETURN(h.max_us, r->ReadDouble());
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

}  // namespace lake::serve
