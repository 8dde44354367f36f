#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

void Report::Fail(const std::string& what) {
  correct = false;
  if (failures.size() < 20) failures.push_back(what);
}

namespace {

size_t RankIndex(size_t n, double q) {
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(n));
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n))) -
         1;
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[RankIndex(values.size(), q)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::map<std::string, double> LayerShares(
    const std::map<std::string, std::vector<double>>& self_us) {
  std::map<std::string, double> out;
  double total = 0;
  for (const auto& [layer, v] : self_us) {
    out[layer] = std::max(0.0, Median(v));
    total += out[layer];
  }
  for (auto& [layer, share] : out) share = total > 0 ? share / total : 0;
  return out;
}

std::map<std::string, Metric> MedianAcross(
    const std::vector<PhaseStats>& phases) {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> failures;
  std::map<std::string, Metric> out;
  for (const PhaseStats& phase : phases) {
    for (const auto& [name, m] : phase.metrics) {
      out[name].unit = m.unit;
      out[name].samples += m.samples;
      auto failed = phase.guard_failures.find(name);
      if (failed == phase.guard_failures.end()) {
        values[name].push_back(m.value);
      } else {
        failures[name] = failed->second;
        std::fprintf(stderr, "perfbench: %s; phase left out of the median\n",
                     failed->second.c_str());
      }
    }
  }
  for (auto& [name, m] : out) {
    if (2 * values[name].size() <= phases.size()) {
      throw BenchError(failures[name] + " in " +
                       std::to_string(phases.size() - values[name].size()) +
                       " of " + std::to_string(phases.size()) + " phases");
    }
    m.value = Median(values[name]);
  }
  return out;
}

void AddLatency(PhaseStats* phase, const std::string& workload,
                const std::string& name, double q,
                const std::vector<double>& values_ms) {
  std::vector<double> values = values_ms;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  Metric& m = phase->metrics[name];
  m = {0, "ms", n};
  char buf[256];
  const size_t beyond = n == 0 ? 0 : n - 1 - RankIndex(n, q);
  if (beyond < 10) {
    std::snprintf(buf, sizeof(buf),
                  "sample guard: workload %s metric %s has %zu samples, "
                  "%zu beyond p%g (need 10)",
                  workload.c_str(), name.c_str(), n, beyond, q * 100);
    phase->guard_failures[name] = buf;
    return;
  }
  m.value = values[RankIndex(n, q)];
  const double window = std::min(0.01, (1.0 - q) / 4);
  const double lo = values[RankIndex(n, q - window)];
  const double hi = values[RankIndex(n, q + window)];
  if (lo <= 0 || hi > 1.5 * lo) {
    std::snprintf(buf, sizeof(buf),
                  "gap guard: workload %s metric %s (%zu samples) sits on a "
                  "gap: p%g=%.4g, p%g=%.4g",
                  workload.c_str(), name.c_str(), n, (q - window) * 100, lo,
                  (q + window) * 100, hi);
    phase->guard_failures[name] = buf;
  }
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0x100000001b3ULL;
  return h ^ (h >> 29);
}

uint64_t HashString(uint64_t h, const std::string& s) {
  uint64_t x = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    x ^= c;
    x *= 0x100000001b3ULL;
  }
  return Mix(h, x);
}

uint64_t HashDouble(uint64_t h, double v) {
  // Scores are compared bit for bit; round away sub-ulp noise of sums.
  const double rounded = std::round(v * 1e9) / 1e9;
  uint64_t bits = 0;
  std::memcpy(&bits, &rounded, sizeof(bits));
  return Mix(h, bits);
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t CounterValue(lake::serve::MetricsRegistry& metrics,
                      const std::string& name) {
  for (const auto& [n, v] : metrics.Snap().counters) {
    if (n == name) return v;
  }
  return 0;
}

uint64_t CounterPrefixSum(lake::serve::MetricsRegistry& metrics,
                          const std::string& prefix) {
  uint64_t sum = 0;
  for (const auto& [n, v] : metrics.Snap().counters) {
    if (n.rfind(prefix, 0) == 0) sum += v;
  }
  return sum;
}

void AssertTimingIndependent(Report* report,
                             lake::serve::MetricsRegistry& service,
                             lake::serve::MetricsRegistry* cluster) {
  // Each of these makes an answer or the work behind it depend on timing.
  static const char* kServiceCounters[] = {
      "serve.brownout",          "serve.shed.limit",
      "serve.shed.codel",        "serve.shed.batch",
      "serve.queries.rejected",  "serve.queries.deadline_exceeded",
      "serve.queries.cancelled", "serve.breaker.fast_fail",
      "serve.queries.unavailable"};
  for (const char* name : kServiceCounters) {
    const uint64_t v = CounterPrefixSum(service, name);
    if (v != 0) {
      report->Fail(std::string("timing-dependent event: ") + name + " = " +
                   std::to_string(v));
    }
  }
  for (const auto& [name, value] : service.Snap().gauges) {
    if (name.rfind("serve.breakers.open", 0) == 0 && value != 0) {
      report->Fail("timing-dependent event: breaker open");
    }
  }
  if (cluster == nullptr) return;
  static const char* kClusterCounters[] = {
      "cluster.queries.degraded", "cluster.failovers", "cluster.shard.missing",
      "cluster.tail.hedges",      "cluster.tail.budget_denied",
      "cluster.tail.ejections",   "cluster.apply.quorum_failures",
      "cluster.apply.replica_failures", "cluster.apply.outcome_mismatch"};
  for (const char* name : kClusterCounters) {
    const uint64_t v = CounterPrefixSum(*cluster, name);
    if (v != 0) {
      report->Fail(std::string("timing-dependent event: ") + name + " = " +
                   std::to_string(v));
    }
  }
}

void RecordOutcome(Report* report, uint64_t attempted, uint64_t ok,
                   uint64_t checked, uint64_t exact, uint64_t answer_digest) {
  report->attempted = attempted;
  report->failed = attempted - ok;
  const double ok_ratio =
      static_cast<double>(ok) / static_cast<double>(attempted);
  const double exact_ratio =
      static_cast<double>(exact) / static_cast<double>(checked);
  report->e2e["ok_ratio"] = {ok_ratio, "ratio", attempted};
  report->e2e["exact_ratio"] = {exact_ratio, "ratio", checked};
  report->record["answer_digest"] = Hex(answer_digest);
  report->record["ok_ratio"] = std::to_string(ok_ratio);
  report->record["exact_ratio"] = std::to_string(exact_ratio);
  if (ok != attempted) {
    report->Fail(std::to_string(attempted - ok) +
                 " operations returned no full answer");
  }
}

uint64_t ResponseDigest(const lake::serve::QueryResponse& r) {
  uint64_t h = Mix(0, r.columns.size() + r.tables.size());
  for (const lake::ColumnResult& c : r.columns) {
    h = Mix(Mix(h, c.column.table_id), c.column.column_index);
    h = HashDouble(h, c.score);
  }
  for (const lake::TableResult& t : r.tables) {
    h = HashDouble(Mix(h, t.table_id), t.score);
  }
  for (const std::string& name : r.table_names) h = HashString(h, name);
  return h;
}

bool FullAnswer(const lake::serve::QueryResponse& r, bool approx_ok) {
  return r.status.ok() && !r.degraded && r.missing_shards.empty() &&
         (approx_ok || !r.approx);
}

void HookTimes::Install(lake::serve::QueryService::Options* options) {
  options->pre_execute_hook = [this](const lake::serve::QueryRequest& req) {
    if (!enabled_.load(std::memory_order_acquire) || service_ == nullptr) {
      return;
    }
    const uint64_t key = service_->CacheKey(req);
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    stamps_[key].push_back(now);
  };
}

bool HookTimes::Take(const lake::serve::QueryRequest& request,
                     Clock::time_point* out) {
  const uint64_t key = service_->CacheKey(request);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stamps_.find(key);
  if (it == stamps_.end() || it->second.empty()) return false;
  *out = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) stamps_.erase(it);
  return true;
}

int64_t Tracer::Record(const std::string& name, Clock::time_point start,
                       Clock::time_point end, uint64_t request,
                       int64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      {name,
       std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
           .count(),
       std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
           .count(),
       parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::SetParent(int64_t span, int64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].parent = parent;
}

void Tracer::WriteJsonl(const std::string& path) const {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":{\"value\":"
        << Number(m.value) << ",\"unit\":\"" << JsonEscape(m.unit)
        << "\",\"samples\":" << m.samples << "}";
    first = false;
  }
  out << "}";
  return out.str();
}

std::string ReportJson(const Report& r) {
  std::ostringstream out;
  out << "{\"workload\":\"" << r.workload << "\",\"correct\":"
      << (r.correct ? "true" : "false") << ",\"attempted\":" << r.attempted
      << ",\"failed\":" << r.failed << ",\"e2e\":" << MetricsJson(r.e2e)
      << ",\"extra\":" << MetricsJson(r.extra)
      << ",\"layers\":" << MetricsJson(r.layers) << ",\"record\":{";
  bool first = true;
  for (const auto& [k, v] : r.record) {
    out << (first ? "" : ",") << "\"" << JsonEscape(k) << "\":\""
        << JsonEscape(v) << "\"";
    first = false;
  }
  out << "},\"layer_shares\":{";
  first = true;
  for (const auto& [k, v] : r.layer_shares) {
    out << (first ? "" : ",") << "\"" << JsonEscape(k) << "\":" << Number(v);
    first = false;
  }
  out << "},\"failures\":[";
  first = true;
  for (const std::string& f : r.failures) {
    out << (first ? "" : ",") << "\"" << JsonEscape(f) << "\"";
    first = false;
  }
  out << "]}";
  return out.str();
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload lookup_hot|discover_mixed|"
               "cluster_ingest --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::max(1, std::stoi(value));
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  try {
    Report report;
    if (args.workload == "lookup_hot") {
      report = RunLookupHot(args);
    } else if (args.workload == "discover_mixed") {
      report = RunDiscoverMixed(args);
    } else if (args.workload == "cluster_ingest") {
      report = RunClusterIngest(args);
    } else {
      return Usage();
    }
    report.e2e["peak_rss_mb"] = {PeakRssMb(), "MiB", 1};
    std::printf("PERFBENCH_RESULT %s\n", ReportJson(report).c_str());
    return 0;
  } catch (const BenchError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
