#include "chaos/workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/oracle.h"
#include "cluster/cluster_engine.h"
#include "lakegen/generator.h"
#include "serve/query_service.h"
#include "util/failpoint.h"
#include "util/periodic_thread.h"
#include "util/random.h"

namespace lake::chaos {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Same reduced engine options every chaos/cluster test uses: keep the
/// mergeable modalities, drop the heavyweight build-time long tail.
DiscoveryEngine::Options ReducedEngineOptions() {
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

GeneratorOptions LakeShape(uint64_t lake_seed) {
  GeneratorOptions opts;
  opts.seed = lake_seed;
  opts.num_domains = 6;
  opts.num_templates = 3;
  opts.tables_per_template = 4;
  opts.min_rows = 30;
  opts.max_rows = 60;
  return opts;
}

constexpr const char* kSyllables[] = {"ta", "ri", "mo", "ze", "ku", "pa",
                                      "len", "dor", "vi", "sha", "ne", "gul"};
constexpr size_t kNumSyllables = sizeof(kSyllables) / sizeof(kSyllables[0]);

std::string MakeWord(Rng& rng) {
  std::string word;
  const size_t syllables = 2 + rng.NextBounded(2);
  for (size_t i = 0; i < syllables; ++i) {
    word += kSyllables[rng.NextBounded(kNumSyllables)];
  }
  return word;
}

/// A small synthetic table (2 string columns + 1 int column) whose content
/// is a pure function of `rng` — the same name always carries the same
/// digest, so the oracle can pin exact content.
Table MakeChaosTable(const std::string& name, Rng rng) {
  const size_t rows = 5 + rng.NextBounded(11);
  std::vector<Value> subject, attribute, measure;
  for (size_t r = 0; r < rows; ++r) {
    subject.emplace_back(MakeWord(rng));
    attribute.emplace_back(MakeWord(rng));
    measure.emplace_back(static_cast<int64_t>(rng.NextBounded(1000)));
  }
  Table t(name);
  t.AddColumn(Column("subject", DataType::kString, std::move(subject)));
  t.AddColumn(Column("attribute", DataType::kString, std::move(attribute)));
  t.AddColumn(Column("measure", DataType::kInt, std::move(measure)));
  return t;
}

/// Owns the system under test: the cluster, the query service in front of
/// it, and (when the plan asks) a background compaction thread. Survives
/// crash-restarts — the lake and the snapshot high-water map outlive the
/// cluster instance.
class ChaosEnv {
 public:
  ChaosEnv(const ChaosPlan& plan, std::string store_root, GeneratedLake* lake)
      : plan_(plan), store_root_(std::move(store_root)), lake_(lake) {}

  ~ChaosEnv() {
    StopBackground();
    service_.reset();
    cluster_.reset();
  }

  void Start() {
    cluster_ = std::make_unique<cluster::ClusterEngine>(lake_->catalog,
                                                        ClusterOptions());
    // Always leave a committed base behind: a crash-restart at op 0 must
    // recover something, and the monotonicity baseline starts here.
    cluster_->Checkpoint();
    StartService();
    StartBackground();
  }

  Status CrashRestart() {
    StopBackground();
    service_.reset();
    cluster_.reset();
    auto recovered = cluster::ClusterEngine::Recover(ClusterOptions());
    if (!recovered.ok()) {
      // Armed faults can make recovery itself fail (that is the point);
      // an operator would clear the fault and retry, so the harness does
      // too. Deterministic: whether the first attempt fails depends only
      // on the plan.
      FailpointRegistry::Instance().ClearAll();
      recovered = cluster::ClusterEngine::Recover(ClusterOptions());
    }
    if (!recovered.ok()) return recovered.status();
    cluster_ = std::move(recovered).value();
    StartService();
    StartBackground();
    return Status::OK();
  }

  cluster::ClusterEngine* cluster() { return cluster_.get(); }
  serve::QueryService* service() { return service_.get(); }

  void StopBackground() { bg_.reset(); }

  /// I3 — snapshot generation monotonicity since the previous call.
  std::vector<std::string> CheckSnapshots() {
    return CheckSnapshotMonotonicity(store_root_, &snap_max_);
  }

 private:
  cluster::ClusterEngine::Options ClusterOptions() const {
    cluster::ClusterEngine::Options opts;
    opts.num_shards = plan_.num_shards;
    opts.num_replicas = plan_.num_replicas;
    opts.write_quorum = plan_.write_quorum;
    opts.store_root = store_root_;
    opts.engine.base_options = ReducedEngineOptions();
    opts.engine.kb = &lake_->kb;
    opts.engine.enable_wal = plan_.enable_wal;
    opts.enable_scrubber = plan_.background;
    opts.scrub_interval_ms = 50;
    // Tail tolerance runs in every chaos exploration (hedged reads +
    // slow-outlier ejection): persistent kDelay faults produce exactly
    // the slow-replica shape these paths exist for, and the invariant
    // checker proves hedged answers stay bit-identical to the oracle's.
    // Short windows/backoffs so the state machines cycle within a run.
    opts.tail.enable_hedging = true;
    opts.tail.hedge_max_delay = milliseconds(20);
    opts.tail.replica.eject_multiple = 3.0;
    opts.tail.replica.eject_min_samples = 8;
    opts.tail.replica.eject_base = milliseconds(100);
    opts.tail.replica.eject_max = milliseconds(400);
    opts.tail.replica.latency_window.slice_width = milliseconds(250);
    return opts;
  }

  void StartService() {
    serve::QueryService::Options sopts;
    sopts.num_workers = 4;
    sopts.default_deadline = milliseconds(2000);
    service_ = std::make_unique<serve::QueryService>(cluster_.get(), sopts);
  }

  void StartBackground() {
    if (!plan_.background) return;
    bg_ = std::make_unique<PeriodicThread>(
        milliseconds(150), [this](bool) { cluster_->CompactAll(); });
  }

  const ChaosPlan& plan_;
  const std::string store_root_;
  GeneratedLake* lake_;
  std::unique_ptr<cluster::ClusterEngine> cluster_;
  std::unique_ptr<serve::QueryService> service_;
  std::unique_ptr<PeriodicThread> bg_;
  std::map<std::string, uint64_t> snap_max_;
};

/// Executes the op schedule, arming faults per the plan and recording
/// every acknowledged mutation in the oracle.
class WorkloadDriver {
 public:
  WorkloadDriver(const ChaosPlan& plan, const RunOptions& run, ChaosEnv* env,
                 GeneratedLake* lake, WorkloadOracle* oracle,
                 ChaosReport* report, Watchdog* watchdog)
      : plan_(plan),
        run_(run),
        env_(env),
        lake_(lake),
        oracle_(oracle),
        report_(report),
        watchdog_(watchdog),
        rng_(Rng(plan.seed).Fork("driver")) {}

  /// Returns false when the run cannot continue (recovery failed); the
  /// violation is already recorded.
  bool Run() {
    for (uint32_t i = 0; i < plan_.ops.size(); ++i) {
      const ChaosOp& op = plan_.ops[i];
      ApplyFaultEvents(i);
      watchdog_->SetContext("seed " + std::to_string(plan_.seed) + " op " +
                            std::to_string(i) + " (" + OpKindName(op.kind) +
                            ")");
      if (run_.verbose) {
        std::fprintf(stderr, "chaos: op %u %s a=%u b=%u\n", i,
                     OpKindName(op.kind), op.a, op.b);
      }
      if (!Execute(op)) return false;
      ++report_->ops_executed;
    }
    return true;
  }

 private:
  using Batch = ingest::LiveEngine::Batch;

  void ApplyFaultEvents(uint32_t op_index) {
    auto& registry = FailpointRegistry::Instance();
    for (const FaultEvent& f : plan_.faults) {
      if (f.disarm_at_op == op_index && f.disarm_at_op != 0) {
        registry.Disarm(f.failpoint);
      }
    }
    for (const FaultEvent& f : plan_.faults) {
      if (f.arm_at_op == op_index) {
        registry.Arm(f.failpoint, f.spec);
        ++report_->faults_armed;
      }
    }
  }

  bool Execute(const ChaosOp& op) {
    switch (op.kind) {
      case OpKind::kIngest:
        DoIngest(op);
        return true;
      case OpKind::kRemove:
        DoRemove(op);
        return true;
      case OpKind::kKeywordQuery:
        DoKeyword(op);
        return true;
      case OpKind::kJoinQuery:
        DoJoin(op);
        return true;
      case OpKind::kUnionQuery:
        DoUnion(op);
        return true;
      case OpKind::kQueryBurst:
        DoBurst(op);
        return true;
      case OpKind::kCheckpoint: {
        env_->cluster()->Checkpoint();
        Append(env_->CheckSnapshots());
        return true;
      }
      case OpKind::kCompact:
        env_->cluster()->CompactAll();
        return true;
      case OpKind::kScrub:
        env_->cluster()->ScrubOnce();
        return true;
      case OpKind::kKillReplica:
        DoKill(op, /*revive=*/false);
        return true;
      case OpKind::kReviveReplica:
        DoKill(op, /*revive=*/true);
        return true;
      case OpKind::kAddShard:
        env_->cluster()->AddShard();
        return true;
      case OpKind::kRemoveShard:
        DoRemoveShard(op);
        return true;
      case OpKind::kCrashRestart:
        return DoCrashRestart();
    }
    return true;
  }

  void DoIngest(const ChaosOp& op) {
    const size_t n = 1 + op.a % 3;
    Batch batch;
    std::vector<Table> tables;
    for (size_t i = 0; i < n; ++i) {
      const std::string name = "chaos_t" + std::to_string(next_table_++);
      Table t = MakeChaosTable(name, rng_.Fork("table:" + name));
      batch.adds.push_back(t);
      tables.push_back(std::move(t));
    }
    const auto outcome = env_->cluster()->ApplyBatch(std::move(batch));
    for (size_t i = 0; i < tables.size(); ++i) {
      if (i < outcome.adds.size() && outcome.adds[i].ok()) {
        oracle_->AckAdd(tables[i]);
      } else if (i >= outcome.adds.size() ||
                 !WorkloadOracle::DefinitelyNotApplied(
                     outcome.adds[i].status())) {
        oracle_->IndeterminateAdd(tables[i]);
      }
    }
  }

  void DoRemove(const ChaosOp& op) {
    const auto candidates = oracle_->PossiblyPresentNames();
    if (candidates.empty()) return;
    std::set<std::string> picked;
    const size_t n = 1 + op.b % 2;
    for (size_t j = 0; j < n; ++j) {
      picked.insert(candidates[(op.a + j) % candidates.size()]);
    }
    Batch batch;
    batch.removes.assign(picked.begin(), picked.end());
    const auto outcome = env_->cluster()->ApplyBatch(std::move(batch));
    for (size_t i = 0; i < picked.size(); ++i) {
      const std::string& name = *std::next(picked.begin(), i);
      if (i < outcome.removes.size() && outcome.removes[i].ok()) {
        oracle_->AckRemove(name);
      } else if (i >= outcome.removes.size() ||
                 !WorkloadOracle::DefinitelyNotApplied(outcome.removes[i])) {
        oracle_->IndeterminateRemove(name);
      }
    }
  }

  void DoKeyword(const ChaosOp& op) {
    const auto& topics = lake_->topic_of;
    if (topics.empty()) return;
    const std::string& topic = topics[op.a % topics.size()];
    if (op.b & 1) {
      serve::QueryRequest req;
      req.kind = serve::QueryKind::kKeyword;
      req.keyword = topic;
      req.k = 16;
      env_->service()->Execute(std::move(req));
    } else {
      const auto resp = env_->cluster()->Keyword(topic, 16);
      CheckNoStaleServed(resp.traces);
    }
  }

  void DoJoin(const ChaosOp& op) {
    const Table* t = PickOracleTable(op.a);
    if (t == nullptr) return;
    serve::QueryRequest req;
    req.kind = serve::QueryKind::kJoin;
    req.join_method = (op.b & 1) ? JoinMethod::kLshEnsemble
                                 : JoinMethod::kJosie;
    // A deterministic slice of join traffic opts into the sampling tier,
    // so the approx.* failpoints sit on an exercised path.
    req.approx_ok = (op.b & 2) != 0;
    req.k = 16;
    for (const Column& c : t->columns()) {
      if (c.type() == DataType::kString) {
        req.values = c.DistinctStrings();
        break;
      }
    }
    if (req.values.empty()) return;
    if (req.values.size() > 20) req.values.resize(20);
    env_->service()->Execute(std::move(req));
  }

  void DoUnion(const ChaosOp& op) {
    const auto names = oracle_->PresentNames();
    if (names.empty()) return;
    const std::string& name = names[op.a % names.size()];
    const Table* t = oracle_->LastContent(name);
    if (t == nullptr) return;
    serve::QueryRequest req;
    req.kind = serve::QueryKind::kUnion;
    req.union_table = t;
    req.exclude_name = name;
    req.union_method = (op.b & 1) ? UnionMethod::kTus : UnionMethod::kStarmie;
    req.k = 16;
    env_->service()->Execute(std::move(req));
  }

  void DoBurst(const ChaosOp& op) {
    const auto& topics = lake_->topic_of;
    if (topics.empty()) return;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 3; ++t) {
      threads.emplace_back([this, &op, &topics, t] {
        for (size_t q = 0; q < 2; ++q) {
          serve::QueryRequest req;
          req.kind = serve::QueryKind::kKeyword;
          req.keyword = topics[(op.a + t + q) % topics.size()];
          req.k = 8;
          env_->service()->Execute(std::move(req));
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  void DoKill(const ChaosOp& op, bool revive) {
    const auto health = env_->cluster()->Health();
    if (health.empty()) return;
    const auto& sh = health[op.a % health.size()];
    if (sh.replicas.empty()) return;
    const size_t replica = op.b % sh.replicas.size();
    if (revive) {
      env_->cluster()->ReviveReplica(sh.shard, replica);
    } else {
      env_->cluster()->KillReplica(sh.shard, replica);
    }
  }

  void DoRemoveShard(const ChaosOp& op) {
    const auto health = env_->cluster()->Health();
    if (health.size() <= 1) return;
    env_->cluster()->RemoveShard(health[op.a % health.size()].shard);
  }

  bool DoCrashRestart() {
    // Without a WAL, acknowledged-but-uncheckpointed work is legitimately
    // volatile; checkpoint first so the crash tests recovery, not a
    // durability level the configuration never promised. If faults block
    // the checkpoint, skip the crash.
    if (!plan_.enable_wal && !env_->cluster()->Checkpoint().ok()) return true;
    const Status st = env_->CrashRestart();
    ++report_->crashes;
    if (!st.ok()) {
      report_->violations.push_back(
          "crash-restart: recovery failed even after clearing faults: " +
          st.ToString());
      return false;
    }
    return true;
  }

  /// I5 — a stale (divergence-quarantined) replica must never answer a
  /// query. Only checkable without background threads: the driver is the
  /// sole mutator, so health cannot change between the query and the
  /// check.
  void CheckNoStaleServed(const std::vector<cluster::ShardTrace>& traces) {
    if (plan_.background) return;
    const auto health = env_->cluster()->Health();
    for (const auto& trace : traces) {
      if (!trace.status.ok()) continue;
      for (const auto& sh : health) {
        if (sh.shard != trace.shard) continue;
        if (trace.replica < sh.replicas.size() &&
            sh.replicas[trace.replica].stale) {
          report_->violations.push_back(
              "stale replica served: shard " + std::to_string(trace.shard) +
              " replica " + std::to_string(trace.replica) +
              " answered a query while quarantined");
        }
      }
    }
  }

  const Table* PickOracleTable(uint32_t selector) {
    const auto names = oracle_->PresentNames();
    if (names.empty()) return nullptr;
    return oracle_->LastContent(names[selector % names.size()]);
  }

  void Append(std::vector<std::string> violations) {
    for (auto& v : violations) report_->violations.push_back(std::move(v));
  }

  const ChaosPlan& plan_;
  const RunOptions& run_;
  ChaosEnv* env_;
  GeneratedLake* lake_;
  WorkloadOracle* oracle_;
  ChaosReport* report_;
  Watchdog* watchdog_;
  Rng rng_;
  uint64_t next_table_ = 0;
};

struct NamedHit {
  std::string name;
  size_t column = 0;
  double score = 0;
};

void SortCanonical(std::vector<NamedHit>* hits) {
  std::sort(hits->begin(), hits->end(),
            [](const NamedHit& a, const NamedHit& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.name != b.name) return a.name < b.name;
              return a.column < b.column;
            });
}

bool SameRanking(const std::vector<NamedHit>& expected,
                 const std::vector<NamedHit>& actual, std::string* detail) {
  if (expected.size() != actual.size()) {
    *detail = "result counts differ: expected " +
              std::to_string(expected.size()) + ", got " +
              std::to_string(actual.size());
    return false;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].name != actual[i].name ||
        expected[i].column != actual[i].column ||
        expected[i].score != actual[i].score) {
      std::ostringstream msg;
      msg << "rank " << i << " differs: expected " << expected[i].name << "#"
          << expected[i].column << "@" << expected[i].score << ", got "
          << actual[i].name << "#" << actual[i].column << "@"
          << actual[i].score;
      *detail = msg.str();
      return false;
    }
  }
  return true;
}

/// Waits for every shard to have at least one serving replica (breakers
/// opened by fault-era failures need their cooldown plus a successful
/// probe to close). Bounded; convergence failures surface in I2 anyway.
void WaitForServing(cluster::ClusterEngine* cluster,
                    const std::string& probe_topic) {
  const auto deadline = steady_clock::now() + milliseconds(5000);
  while (steady_clock::now() < deadline) {
    cluster->Keyword(probe_topic, 1);  // probe: lets half-open breakers close
    bool all_serving = true;
    for (const auto& sh : cluster->Health()) {
      if (sh.replicas_serving == 0) all_serving = false;
      for (const auto& r : sh.replicas) {
        if (!r.serving) all_serving = false;
      }
    }
    if (all_serving) return;
    std::this_thread::sleep_for(milliseconds(50));
  }
}

/// I6 — rankings bit-identical to a freshly built single-node engine over
/// the surviving corpus (the cluster's core contract, re-proven after
/// every chaos schedule).
std::vector<std::string> CheckRankings(cluster::ClusterEngine* cluster,
                                       const GeneratedLake& lake) {
  std::vector<std::string> out;
  std::vector<Table> tables = cluster->VisibleTables();
  if (tables.empty()) return out;

  DataLakeCatalog reference;
  for (Table& t : tables) reference.AddTable(std::move(t));
  const DiscoveryEngine engine(&reference, &lake.kb, ReducedEngineOptions());
  const size_t k = reference.num_tables() + 8;

  auto canon_tables = [&reference](const std::vector<TableResult>& rs) {
    std::vector<NamedHit> outv;
    for (const TableResult& r : rs) {
      outv.push_back({reference.table(r.table_id).name(), 0, r.score});
    }
    SortCanonical(&outv);
    return outv;
  };
  auto canon_table_hits = [](const std::vector<cluster::TableHit>& hs) {
    std::vector<NamedHit> outv;
    for (const auto& h : hs) outv.push_back({h.table, 0, h.score});
    SortCanonical(&outv);
    return outv;
  };

  WaitForServing(cluster, lake.topic_of.empty() ? "probe" : lake.topic_of[0]);

  std::string detail;
  for (const std::string& topic : lake.topic_of) {
    const auto expected = canon_tables(engine.Keyword(topic, k));
    const auto got = cluster->Keyword(topic, k);
    if (!got.status.ok() || got.degraded) {
      out.push_back("rankings: keyword '" + topic +
                    "' failed or degraded at quiesce: " +
                    got.status.ToString());
      continue;
    }
    if (!SameRanking(expected, canon_table_hits(got.hits), &detail)) {
      out.push_back("rankings: keyword '" + topic +
                    "' diverged from the single-node oracle: " + detail);
    }
  }

  // One joinable and one unionable probe off the first reference table.
  const Table& probe = reference.table(0);
  std::vector<std::string> join_values;
  for (const Column& c : probe.columns()) {
    if (c.type() == DataType::kString) {
      join_values = c.DistinctStrings();
      break;
    }
  }
  if (!join_values.empty()) {
    const auto expected = engine.Joinable(join_values, JoinMethod::kJosie, k);
    const auto got =
        cluster->Joinable(join_values, JoinMethod::kJosie, k);
    if (!expected.ok() || !got.status.ok() || got.degraded) {
      out.push_back("rankings: joinable probe failed at quiesce");
    } else {
      std::vector<NamedHit> exp;
      for (const ColumnResult& r : expected.value()) {
        exp.push_back({reference.table(r.column.table_id).name(),
                       r.column.column_index, r.score});
      }
      SortCanonical(&exp);
      std::vector<NamedHit> act;
      for (const auto& h : got.hits) {
        act.push_back({h.table, h.column_index, h.score});
      }
      SortCanonical(&act);
      if (!SameRanking(exp, act, &detail)) {
        out.push_back(
            "rankings: joinable diverged from the single-node oracle: " +
            detail);
      }
    }
  }

  const auto expected_union =
      engine.Unionable(probe, UnionMethod::kTus, k, /*exclude=*/0);
  const auto got_union = cluster->Unionable(probe, UnionMethod::kTus, k,
                                            /*exclude_name=*/probe.name());
  if (!expected_union.ok() || !got_union.status.ok() || got_union.degraded) {
    out.push_back("rankings: unionable probe failed at quiesce");
  } else if (!SameRanking(canon_tables(expected_union.value()),
                          canon_table_hits(got_union.hits), &detail)) {
    out.push_back(
        "rankings: unionable diverged from the single-node oracle: " + detail);
  }
  return out;
}

void Append(std::vector<std::string> more, ChaosReport* report) {
  for (auto& v : more) report->violations.push_back(std::move(v));
}

/// Quiesce: clear faults, stop background work, revive everything, scrub
/// to convergence, resolve rebalance strays, compact, checkpoint — then
/// the lake is in the steady state the invariants are defined over.
void Quiesce(const ChaosPlan& plan, ChaosEnv* env, ChaosReport* report) {
  FailpointRegistry::Instance().ClearAll();
  env->StopBackground();
  cluster::ClusterEngine* cluster = env->cluster();
  for (const auto& sh : cluster->Health()) {
    for (const auto& r : sh.replicas) {
      if (!r.alive) cluster->ReviveReplica(sh.shard, r.replica);
    }
  }
  for (uint32_t i = 0; i < plan.num_replicas + 3; ++i) {
    const auto scrub = cluster->ScrubOnce();
    if (scrub.shards_divergent == 0 && scrub.replicas_unrepaired == 0) break;
  }
  cluster->SweepStrayCopies();
  const Status compacted = cluster->CompactAll();
  if (!compacted.ok()) {
    report->violations.push_back(
        "quiesce: compaction failed with no fault armed: " +
        compacted.ToString());
  }
  const Status checkpointed = cluster->Checkpoint();
  if (!checkpointed.ok()) {
    report->violations.push_back(
        "quiesce: checkpoint failed with no fault armed: " +
        checkpointed.ToString());
  }
}

}  // namespace

ChaosReport RunChaos(const ChaosPlan& plan, const RunOptions& options) {
  ChaosReport report;
  if (options.scratch_dir.empty()) {
    report.violations.push_back("harness: RunOptions::scratch_dir is empty");
    return report;
  }
  Watchdog watchdog(options.watchdog_budget_ms,
                    "seed " + std::to_string(plan.seed) + " setup");

  fs::create_directories(options.scratch_dir);
  const std::string store_root =
      (fs::path(options.scratch_dir) / "store").string();
  fs::remove_all(store_root);

  auto& registry = FailpointRegistry::Instance();
  registry.ClearAll();
  registry.Reseed(plan.seed);
  RegisterFailpointCatalog(plan.num_shards, plan.num_replicas);

  GeneratedLake lake = LakeGenerator(LakeShape(plan.lake_seed)).Generate();
  WorkloadOracle oracle;
  for (TableId id : lake.catalog.AllTables()) {
    oracle.NoteInitial(lake.catalog.table(id));
  }

  {
    ChaosEnv env(plan, store_root, &lake);
    env.Start();

    WorkloadDriver driver(plan, options, &env, &lake, &oracle, &report,
                          &watchdog);
    const bool completed = driver.Run();

    if (completed) {
      watchdog.SetContext("seed " + std::to_string(plan.seed) + " quiesce");
      Quiesce(plan, &env, &report);
      Append(env.CheckSnapshots(), &report);
      Append(CheckConvergence(env.cluster()->Health()), &report);
      Append(CheckZeroLoss(oracle, env.cluster()->VisibleTableDigests()),
             &report);
      Append(CheckRankings(env.cluster(), lake), &report);

      if (plan.final_crash) {
        watchdog.SetContext("seed " + std::to_string(plan.seed) +
                            " final crash-restart");
        const Status st = env.CrashRestart();
        ++report.crashes;
        if (!st.ok()) {
          report.violations.push_back(
              "final crash-restart: recovery failed: " + st.ToString());
        } else {
          env.StopBackground();
          env.cluster()->ScrubOnce();
          Append(env.CheckSnapshots(), &report);
          Append(CheckConvergence(env.cluster()->Health()), &report);
          Append(CheckZeroLoss(oracle,
                               env.cluster()->VisibleTableDigests()),
                 &report);
        }
      }
    }
  }

  registry.ClearAll();
  if (!options.keep_scratch) {
    std::error_code ec;
    fs::remove_all(options.scratch_dir, ec);
  }
  watchdog.Disarm();
  report.ok = report.violations.empty();
  return report;
}

}  // namespace lake::chaos
