// E19 — serving under online ingestion (survey §6, "open problem: dynamic
// data lakes"): the LSM base+delta split keeps serving p95 under a 1x
// ingest stream within 2x of the idle baseline, because readers never lock
// against ingestion, they only merge a small delta.
//
// Two rows replay the same mixed keyword/join/union workload (cache
// bypassed, so every query pays the engine) against a LiveEngine: idle,
// and with a 1x ingest stream running an auto-compactor, each printed as
// a RESULT_JSON line, then a summary line with the ratio. Publish cost and compaction time are
// measured by perfbench's cluster_ingest workload (ingest.publish_ms,
// ingest.compact_s); WAL durability by the ingest and store test suites.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "ingest/compactor.h"
#include "ingest/live_engine.h"
#include "ingest/pipeline.h"
#include "lakegen/generator.h"
#include "search/discovery_engine.h"
#include "serve/query_service.h"
#include "util/string_util.h"

namespace {

using lake::DataLakeCatalog;
using lake::DiscoveryEngine;
using lake::GeneratedLake;
using lake::GeneratorOptions;
using lake::LakeGenerator;
using lake::StrFormat;
using lake::Table;
using lake::TableId;
using lake::ingest::Compactor;
using lake::ingest::IngestPipeline;
using lake::ingest::LiveEngine;
using lake::serve::QueryKind;
using lake::serve::QueryRequest;
using lake::serve::QueryResponse;
using lake::serve::QueryService;

constexpr size_t kTopK = 10;
constexpr int kClientThreads = 2;
constexpr double kRunSeconds = 3.0;
// Open-loop offered load, held below single-core saturation so the rows
// compare tail latency at equal load rather than at equal CPU starvation.
constexpr double kOfferedQps = 120.0;
constexpr double kBaseIngestPerSec = 2.0;  // 1x: 10% of the base lake per second

DiscoveryEngine::Options BaseOptions() {
  DiscoveryEngine::Options eopts;
  eopts.build_pexeso = false;
  eopts.build_mate = false;
  eopts.build_correlated = false;
  eopts.build_santos = false;
  eopts.build_d3l = false;
  eopts.synthesize_kb = false;
  eopts.train_annotator = false;
  return eopts;
}

std::vector<QueryRequest> MakeWorkload(const GeneratedLake& lake,
                                       const DataLakeCatalog& catalog) {
  std::vector<QueryRequest> distinct;
  const size_t num_tables = catalog.num_tables();
  for (size_t i = 0; distinct.size() < 18; ++i) {
    QueryRequest req;
    req.k = kTopK;
    req.bypass_cache = true;  // every query pays the engine
    switch (i % 3) {
      case 0: {
        const Table& t = catalog.table(static_cast<TableId>(i % num_tables));
        req.kind = QueryKind::kJoin;
        req.join_method = lake::JoinMethod::kJosie;
        for (size_t c = 0; c < t.num_columns(); ++c) {
          if (!t.column(c).IsNumeric()) {
            req.values = t.column(c).DistinctStrings();
            break;
          }
        }
        if (req.values.empty()) continue;
        break;
      }
      case 1:
        req.kind = QueryKind::kKeyword;
        req.keyword = lake.topic_of[i % lake.topic_of.size()];
        break;
      default:
        req.kind = QueryKind::kUnion;
        req.union_method = lake::UnionMethod::kStarmie;
        req.union_table = &catalog.table(static_cast<TableId>(i % num_tables));
        req.exclude = static_cast<int64_t>(i % num_tables);
        break;
    }
    distinct.push_back(std::move(req));
  }
  return distinct;
}

double Percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t index = std::min(
      sorted.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted.size())));
  return sorted[index];
}

struct Row {
  double qps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  uint64_t queries = 0;
  uint64_t errors = 0;
  uint64_t ingested = 0;
  uint64_t compactions = 0;
  uint64_t delta_hits = 0;
};

/// Serves the workload for kRunSeconds with kClientThreads closed-loop
/// clients while (optionally) streaming `ingest_per_sec` copies of base
/// tables through the pipeline with an auto-compactor.
Row RunScenario(const GeneratedLake& lake,
                std::shared_ptr<const DataLakeCatalog> catalog,
                std::shared_ptr<const DiscoveryEngine> base,
                double ingest_per_sec, const char* tag) {
  LiveEngine::Options lopts;
  lopts.base_options = BaseOptions();
  lopts.kb = &lake.kb;
  LiveEngine live(catalog, base, lopts);
  QueryService::Options sopts;
  sopts.num_workers = kClientThreads;
  QueryService service(&live, sopts);
  const std::vector<QueryRequest> workload = MakeWorkload(lake, *catalog);

  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> latencies(kClientThreads);
  std::vector<uint64_t> errors(kClientThreads, 0);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      size_t next = static_cast<size_t>(t);
      const auto interval = std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(std::chrono::duration<double>(
          static_cast<double>(kClientThreads) / kOfferedQps));
      auto slot = std::chrono::steady_clock::now();
      while (!stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_until(slot);
        slot += interval;
        const auto start = std::chrono::steady_clock::now();
        QueryResponse resp = service.Execute(workload[next % workload.size()]);
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (resp.status.ok()) {
          latencies[t].push_back(ms);
        } else {
          ++errors[t];
        }
        ++next;
      }
    });
  }

  Row row;
  {
    IngestPipeline pipeline(&live);
    Compactor::Options copts;
    copts.max_delta_tables = 10;
    copts.poll_interval_ms = 10;
    Compactor compactor(&live, copts);

    const auto run_start = std::chrono::steady_clock::now();
    uint64_t submitted = 0;
    std::vector<std::future<lake::Result<TableId>>> pending;
    while (true) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        run_start)
              .count();
      if (elapsed >= kRunSeconds) break;
      if (ingest_per_sec > 0 &&
          static_cast<double>(submitted) < elapsed * ingest_per_sec) {
        Table copy = catalog->table(
            static_cast<TableId>(submitted % catalog->num_tables()));
        copy.set_name(StrFormat("%s_stream_%04llu", tag,
                                static_cast<unsigned long long>(submitted)));
        pending.push_back(pipeline.SubmitTable(std::move(copy)));
        ++submitted;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    stop.store(true);
    for (std::thread& c : clients) c.join();
    for (auto& f : pending) {
      if (f.get().ok()) ++row.ingested;
    }
    pipeline.Flush();
    compactor.Stop();
  }

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  for (uint64_t e : errors) row.errors += e;
  row.queries = all.size();
  row.qps = static_cast<double>(all.size()) / kRunSeconds;
  row.p50_ms = Percentile(all, 0.50);
  row.p95_ms = Percentile(all, 0.95);
  row.compactions = live.compactions();
  row.delta_hits =
      service.metrics().GetCounter("serve.ingest.delta_hits")->value();
  return row;
}

void PrintRow(const char* mode, double rate, const Row& row) {
  std::printf(
      "  %-10s ingest=%4.1f/s  qps=%7.1f  p50=%6.2fms  p95=%6.2fms  "
      "queries=%llu errors=%llu ingested=%llu compactions=%llu "
      "delta_hits=%llu\n",
      mode, rate, row.qps, row.p50_ms, row.p95_ms,
      static_cast<unsigned long long>(row.queries),
      static_cast<unsigned long long>(row.errors),
      static_cast<unsigned long long>(row.ingested),
      static_cast<unsigned long long>(row.compactions),
      static_cast<unsigned long long>(row.delta_hits));
  lake::bench::PrintJsonLine(
      "E19_ingest",
      StrFormat("\"mode\":\"%s\",\"ingest_per_sec\":%.1f,\"qps\":%.1f,"
                "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"queries\":%llu,"
                "\"errors\":%llu,\"ingested\":%llu,\"compactions\":%llu,"
                "\"delta_hits\":%llu",
                mode, rate, row.qps, row.p50_ms, row.p95_ms,
                static_cast<unsigned long long>(row.queries),
                static_cast<unsigned long long>(row.errors),
                static_cast<unsigned long long>(row.ingested),
                static_cast<unsigned long long>(row.compactions),
                static_cast<unsigned long long>(row.delta_hits)));
}

}  // namespace

int main() {
  lake::bench::PrintHeader(
      "E19 ingest: serving under online ingestion",
      "LSM base+delta serving keeps p95 under a 1x ingest stream within 2x "
      "of the idle baseline");

  GeneratorOptions gopts;
  gopts.seed = 17;
  gopts.num_domains = 8;
  gopts.num_templates = 4;
  gopts.tables_per_template = 5;
  gopts.min_rows = 60;
  gopts.max_rows = 120;
  GeneratedLake lake = LakeGenerator(gopts).Generate();
  auto catalog =
      std::make_shared<DataLakeCatalog>(std::move(lake.catalog));

  auto base = std::make_shared<DiscoveryEngine>(catalog.get(), &lake.kb,
                                                BaseOptions());
  std::printf("lake: %zu tables, %zu columns\n", catalog->num_tables(),
              catalog->num_columns());

  const Row idle = RunScenario(lake, catalog, base, 0.0, "idle");
  PrintRow("no_ingest", 0.0, idle);
  const Row x1 = RunScenario(lake, catalog, base, kBaseIngestPerSec, "x1");
  PrintRow("ingest_1x", kBaseIngestPerSec, x1);

  const double ratio = idle.p95_ms > 0 ? x1.p95_ms / idle.p95_ms : 0;
  std::printf("  p95 under 1x ingest / idle p95 = %.2fx %s\n", ratio,
              ratio <= 2.0 ? "(within 2x bound)" : "(EXCEEDS 2x bound)");
  lake::bench::PrintJsonLine(
      "E19_ingest",
      StrFormat("\"mode\":\"summary\",\"p95_ratio_1x\":%.3f,"
                "\"within_2x\":%s",
                ratio, ratio <= 2.0 ? "true" : "false"));
  return 0;
}
