#include "ingest/live_engine.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_set>

#include "cluster/topk_merge.h"
#include "table/csv.h"
#include "table/table_meta.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace lake::ingest {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Merges two ranked lists (already filtered/remapped) into one top-k via
/// the shared N-way merge; list order (base first) makes score ties prefer
/// the base side.
using cluster::MergeRankedTopK;

constexpr uint64_t kStateFormatVersion = 1;
/// Format of the "ingest/wal" snapshot section (varint format, varint
/// durable LSN) and of each WAL record payload.
constexpr uint64_t kWalFormatVersion = 1;

/// One visible table's contribution to the rollup: 64 bits derived from
/// (name, digest) so the rollup can XOR contributions in and out in any
/// order. The name is folded in twice (with different chaining) so
/// swapping the digests of two tables cannot cancel out.
uint64_t MixTableDigest(const std::string& name, uint32_t digest) {
  const unsigned char le[4] = {
      static_cast<unsigned char>(digest & 0xff),
      static_cast<unsigned char>((digest >> 8) & 0xff),
      static_cast<unsigned char>((digest >> 16) & 0xff),
      static_cast<unsigned char>((digest >> 24) & 0xff)};
  const uint32_t lo = Crc32cExtend(Crc32c(name.data(), name.size()), le, 4);
  const uint32_t hi = Crc32cExtend(lo, name.data(), name.size());
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

}  // namespace

uint32_t TableContentDigest(const Table& table) {
  const std::string& name = table.name();
  uint32_t crc = Crc32c(name.data(), name.size());
  const std::string csv = WriteCsvString(table);
  crc = Crc32cExtend(crc, csv.data(), csv.size());
  if (HasMetadata(table.metadata())) {
    const std::string meta = SerializeTableMetadata(table.metadata());
    crc = Crc32cExtend(crc, meta.data(), meta.size());
  }
  return crc;
}

// ---------------------------------------------------------------------------
// Generation: id resolution
// ---------------------------------------------------------------------------

std::shared_ptr<const Generation> Generation::Frozen(
    const DiscoveryEngine& engine) {
  // Aliasing constructors over an empty owner: pointers that never delete.
  return std::shared_ptr<const Generation>(new Generation(
      /*number=*/0, /*version=*/0,
      std::shared_ptr<const DataLakeCatalog>(std::shared_ptr<void>(),
                                             &engine.catalog()),
      std::shared_ptr<const DiscoveryEngine>(std::shared_ptr<void>(), &engine),
      std::make_shared<const DeltaPart>()));
}

Result<std::string> Generation::TableName(TableId id) const {
  LAKE_ASSIGN_OR_RETURN(const Table* table, FindTableById(id));
  return table->name();
}

Result<const Table*> Generation::FindTableById(TableId id) const {
  const size_t base_count = base_table_count();
  if (id < base_count) {
    if (delta_->tombstones.count(id)) {
      return Status::NotFound("table id " + std::to_string(id) +
                              " is tombstoned");
    }
    return &base_catalog_->table(id);
  }
  const size_t local = id - base_count;
  if (delta_->catalog == nullptr || local >= delta_->catalog->num_tables()) {
    return Status::NotFound("table id " + std::to_string(id) +
                            " out of range");
  }
  return &delta_->catalog->table(static_cast<TableId>(local));
}

Result<TableId> Generation::FindTable(const std::string& name) const {
  if (delta_->catalog != nullptr) {
    Result<TableId> local = delta_->catalog->FindTable(name);
    if (local.ok()) {
      return static_cast<TableId>(base_table_count() + local.value());
    }
  }
  LAKE_ASSIGN_OR_RETURN(TableId id, base_catalog_->FindTable(name));
  if (delta_->tombstones.count(id)) {
    return Status::NotFound("table " + name + " (removed)");
  }
  return id;
}

// ---------------------------------------------------------------------------
// Merged queries
// ---------------------------------------------------------------------------

namespace {

TableId& TableIdOf(TableResult& r) { return r.table_id; }
TableId& TableIdOf(ColumnResult& r) { return r.column.table_id; }

/// The base+delta merge every Merged* query shares. `search(engine, k,
/// delta_side)` runs the query on one side. The base is asked for k plus
/// the tombstone count (tombstoned hits are dropped after the fact, so ask
/// for enough extras to still fill k); delta ids are shifted into the
/// lake-visible range. A FailedPrecondition from the delta means the
/// memtable does not build the method: the answer is base-only until
/// compaction. Any other delta error fails the query.
template <typename R, typename Search>
Result<std::vector<R>> MergeSides(const Generation& gen, size_t k,
                                  MergeStats* stats, Search search) {
  const DeltaPart& delta_part = gen.delta();
  const size_t base_k = k + delta_part.tombstones.size();
  LAKE_ASSIGN_OR_RETURN(std::vector<R> base,
                        search(gen.base(), base_k, false));
  auto tombstoned = [&](R& r) {
    return delta_part.tombstones.count(TableIdOf(r)) != 0;
  };
  auto removed = std::remove_if(base.begin(), base.end(), tombstoned);
  if (static_cast<size_t>(base.end() - removed) >
          delta_part.tombstones.size() &&
      base.size() == base_k) {
    // One removed table can own several top columns, so a full page came
    // back short of k. Re-ask once with room for every column of every
    // tombstoned table: filtering cannot drop more hits than that.
    size_t tombstoned_columns = 0;
    for (TableId id : delta_part.tombstones) {
      tombstoned_columns += gen.base_catalog().table(id).num_columns();
    }
    LAKE_ASSIGN_OR_RETURN(base,
                          search(gen.base(), k + tombstoned_columns, false));
    removed = std::remove_if(base.begin(), base.end(), tombstoned);
  }
  if (stats != nullptr) {
    stats->tombstone_filtered += static_cast<size_t>(base.end() - removed);
  }
  base.erase(removed, base.end());
  if (stats != nullptr) stats->base_results += base.size();

  std::vector<R> delta;
  if (gen.has_delta()) {
    Result<std::vector<R>> found = search(*delta_part.engine, k, true);
    if (found.ok()) {
      delta = std::move(found).value();
      const TableId offset = static_cast<TableId>(gen.base_table_count());
      for (R& r : delta) TableIdOf(r) += offset;
      if (stats != nullptr) stats->delta_results += delta.size();
    } else if (found.status().code() != StatusCode::kFailedPrecondition) {
      return found.status();
    }
  }
  return MergeRankedTopK(std::move(base), std::move(delta), k);
}

}  // namespace

std::vector<TableResult> MergedKeyword(const Generation& gen,
                                       const std::string& query, size_t k,
                                       MergeStats* stats,
                                       const Bm25Index::CorpusStats* corpus) {
  // Keyword search cannot fail, so neither can the merge.
  return MergeSides<TableResult>(
             gen, k, stats,
             [&](const DiscoveryEngine& engine, size_t side_k, bool)
                 -> Result<std::vector<TableResult>> {
               return engine.Keyword(query, side_k, corpus);
             })
      .value();
}

Bm25Index::CorpusStats GatherKeywordStats(const Generation& gen,
                                          const std::string& query) {
  Bm25Index::CorpusStats stats = gen.base().KeywordStats(query);
  if (gen.has_delta()) stats.Merge(gen.delta().engine->KeywordStats(query));
  return stats;
}

Result<std::vector<ColumnResult>> MergedJoinable(
    const Generation& gen, const std::vector<std::string>& query_values,
    JoinMethod method, size_t k, const CancelToken* cancel, MergeStats* stats,
    double error_budget, approx::ApproxQueryStats* approx_stats) {
  return MergeSides<ColumnResult>(
      gen, k, stats,
      [&](const DiscoveryEngine& engine, size_t side_k, bool) {
        return engine.Joinable(query_values, method, side_k, cancel,
                               error_budget, approx_stats);
      });
}

Result<std::vector<TableResult>> MergedUnionable(
    const Generation& gen, const Table& query, UnionMethod method, size_t k,
    int64_t exclude, const CancelToken* cancel, MergeStats* stats) {
  // `exclude` is a lake-visible id; each side excludes only its own range.
  const int64_t base_count = static_cast<int64_t>(gen.base_table_count());
  return MergeSides<TableResult>(
      gen, k, stats,
      [&](const DiscoveryEngine& engine, size_t side_k, bool delta_side) {
        int64_t side_exclude = -1;
        if (!delta_side && exclude < base_count) side_exclude = exclude;
        if (delta_side && exclude >= base_count) {
          side_exclude = exclude - base_count;
        }
        return engine.Unionable(query, method, side_k, side_exclude, cancel);
      });
}

Result<std::vector<ColumnResult>> MergedCorrelated(
    const Generation& gen, const std::vector<std::string>& key_values,
    const std::vector<double>& numeric_values, size_t k,
    const CancelToken* cancel, MergeStats* stats) {
  return MergeSides<ColumnResult>(
      gen, k, stats,
      [&](const DiscoveryEngine& engine, size_t side_k, bool) {
        return engine.Correlated(key_values, numeric_values, side_k, cancel);
      });
}

// ---------------------------------------------------------------------------
// LiveEngine
// ---------------------------------------------------------------------------

namespace {

/// WAL record payload — exactly one *accepted* mutation batch:
///
///   varint format (= kWalFormatVersion)
///   varint num_removes, then per remove: string name
///   varint num_adds,    then per add:    string name, string csv,
///                                        varint has_meta, (string meta)?
///
/// Only accepted ops are logged: replaying the record through ApplyBatch
/// re-derives the same decisions, and rejected ops carried no state.
std::string EncodeWalBatch(const std::vector<std::string>& removes,
                           const std::vector<const Table*>& adds) {
  std::ostringstream out;
  BinaryWriter w(&out);
  w.WriteVarint(kWalFormatVersion);
  w.WriteVarint(removes.size());
  for (const std::string& name : removes) w.WriteString(name);
  w.WriteVarint(adds.size());
  for (const Table* table : adds) {
    w.WriteString(table->name());
    w.WriteString(WriteCsvString(*table));
    const bool has_meta = HasMetadata(table->metadata());
    w.WriteVarint(has_meta ? 1 : 0);
    if (has_meta) w.WriteString(SerializeTableMetadata(table->metadata()));
  }
  return std::move(out).str();
}

Result<LiveEngine::Batch> DecodeWalBatch(std::string_view payload) {
  std::istringstream in{std::string(payload)};
  BinaryReader r(&in);
  LiveEngine::Batch batch;
  LAKE_ASSIGN_OR_RETURN(uint64_t format, r.ReadVarint());
  if (format != kWalFormatVersion) {
    return Status::IoError("unknown WAL batch format " +
                           std::to_string(format));
  }
  LAKE_ASSIGN_OR_RETURN(uint64_t num_removes, r.ReadVarint());
  for (uint64_t i = 0; i < num_removes; ++i) {
    LAKE_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    batch.removes.push_back(std::move(name));
  }
  LAKE_ASSIGN_OR_RETURN(uint64_t num_adds, r.ReadVarint());
  for (uint64_t i = 0; i < num_adds; ++i) {
    LAKE_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    LAKE_ASSIGN_OR_RETURN(std::string csv, r.ReadString());
    LAKE_ASSIGN_OR_RETURN(Table table, ReadCsvString(csv, name));
    LAKE_ASSIGN_OR_RETURN(uint64_t has_meta, r.ReadVarint());
    if (has_meta != 0) {
      LAKE_ASSIGN_OR_RETURN(std::string meta_bytes, r.ReadString());
      LAKE_ASSIGN_OR_RETURN(TableMetadata meta,
                            ParseTableMetadata(meta_bytes));
      table.metadata() = std::move(meta);
    }
    batch.adds.push_back(std::move(table));
  }
  return batch;
}

}  // namespace

DiscoveryEngine::Options LiveEngine::Options::DefaultDeltaOptions() {
  DiscoveryEngine::Options opts;
  // Memtable modalities whose scores merge against the base: exact
  // overlap/containment (JOSIE, exact join, LSH Ensemble), BM25 keyword,
  // and the shared-embedding-space union methods (TUS, Starmie).
  opts.build_pexeso = false;
  opts.build_mate = false;
  opts.build_correlated = false;
  opts.build_santos = false;
  opts.build_d3l = false;
  // No per-batch KB synthesis or annotator training: both are O(lake)
  // analysis passes, not serving structures.
  opts.synthesize_kb = false;
  opts.train_annotator = false;
  return opts;
}

LiveEngine::LiveEngine(std::shared_ptr<const DataLakeCatalog> base_catalog,
                       std::shared_ptr<const DiscoveryEngine> base_engine,
                       Options options)
    : options_(std::move(options)),
      base_catalog_(std::move(base_catalog)),
      base_engine_(std::move(base_engine)) {
  options_.delta_options.embedding_dim = options_.base_options.embedding_dim;
  InitMetrics();
  // Seed the content digest from the base: one O(lake) pass here, then
  // every mutation maintains it incrementally.
  for (TableId id : base_catalog_->AllTables()) {
    AddTableDigest(base_catalog_->table(id));
  }
  if (options_.enable_wal) {
    // Fail-stop on an unopenable log: wal_ stays null and every mutation
    // is rejected, rather than acknowledging work a crash would lose.
    Status opened = OpenWal(/*next_lsn=*/0);
    if (!opened.ok()) {
      LAKE_LOG(Warning) << "WAL open failed (mutations fail-stop): "
                        << opened.ToString();
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  Publish();
}

LiveEngine::LiveEngine(std::shared_ptr<const DataLakeCatalog> base_catalog,
                       Options options)
    : LiveEngine(base_catalog,
                 std::make_shared<const DiscoveryEngine>(
                     base_catalog.get(), options.kb, options.base_options),
                 options) {}

void LiveEngine::InitMetrics() {
  if (options_.metrics == nullptr) return;
  serve::MetricsRegistry& m = *options_.metrics;
  tables_added_ = m.GetCounter("ingest.tables.added");
  tables_removed_ = m.GetCounter("ingest.tables.removed");
  publishes_ = m.GetCounter("ingest.publishes");
  compactions_counter_ = m.GetCounter("ingest.compactions");
  compaction_failures_ = m.GetCounter("ingest.compaction.failures");
  delta_tables_gauge_ = m.GetGauge("ingest.delta.tables");
  tombstones_gauge_ = m.GetGauge("ingest.tombstones");
  generation_gauge_ = m.GetGauge("ingest.generation");
  publish_latency_ = m.GetHistogram("ingest.publish_ms");
  compaction_latency_ = m.GetHistogram("ingest.compaction_ms");
  wal_appends_ = m.GetCounter("ingest.wal.appends");
  wal_bytes_ = m.GetCounter("ingest.wal.bytes");
  wal_fsyncs_ = m.GetCounter("ingest.wal.fsyncs");
  wal_replayed_ = m.GetCounter("ingest.wal.replayed_records");
  wal_truncated_bytes_ = m.GetCounter("ingest.wal.truncated_tail_bytes");
  wal_unsynced_gauge_ = m.GetGauge("ingest.wal.unsynced_records");
}

std::string LiveEngine::WalDir() const {
  return options_.store != nullptr ? options_.store->dir() + "/wal"
                                   : std::string();
}

Status LiveEngine::OpenWal(uint64_t next_lsn) {
  if (options_.store == nullptr) {
    return Status::FailedPrecondition("WAL requires a snapshot store");
  }
  Result<std::unique_ptr<store::WalWriter>> writer =
      next_lsn == 0
          ? store::WalWriter::Open(WalDir(), options_.wal_options)
          : store::WalWriter::OpenAt(WalDir(), options_.wal_options,
                                     next_lsn);
  if (!writer.ok()) return writer.status();
  wal_ = std::move(writer).value();
  wal_exported_ = store::WalWriter::Stats{};
  return Status::OK();
}

// A torn append kills the WalWriter permanently (fail-stop: the torn bytes
// stay on disk and that writer never appends again). Without intervention
// the engine would keep serving reads but reject every later mutation —
// un-repairable by the scrubber and indistinguishable from a stuck replica.
// Roll the log instead: reopen with a directory scan, which tolerates the
// torn tail and continues the dense LSN chain in a fresh segment, exactly
// as crash recovery would. Replay chains across the torn tail (see
// wal_test ReplayChainsAcrossTornTailIntoNextSegment), so no acknowledged
// record is at risk. The batch that hit the torn write stays rejected.
void LiveEngine::RollWal() {
  const uint64_t durable = wal_->durable_lsn();
  wal_.reset();
  Status reopened = OpenWal(/*next_lsn=*/0);
  if (!reopened.ok()) {
    // Fail-stop per batch: wal_ stays null and later batches are rejected
    // with FailedPrecondition until a checkpoint/recover cycle reopens it.
    LAKE_LOG(Warning) << "ingest: WAL roll after dead writer failed: "
                      << reopened.ToString();
    return;
  }
  wal_->set_durable_lsn(durable);
  LAKE_LOG(Warning)
      << "ingest: WAL writer died (torn append); rolled to a fresh segment";
}

void LiveEngine::ExportWalMetrics() {
  if (wal_ == nullptr) return;
  if (wal_unsynced_gauge_ != nullptr) {
    wal_unsynced_gauge_->Set(wal_->unsynced_records());
  }
  if (wal_appends_ == nullptr) return;
  const store::WalWriter::Stats& s = wal_->stats();
  wal_appends_->Add(s.appends - wal_exported_.appends);
  wal_bytes_->Add(s.bytes_appended - wal_exported_.bytes_appended);
  wal_fsyncs_->Add(s.fsyncs - wal_exported_.fsyncs);
  wal_exported_ = s;
}

LiveEngine::WalStatus LiveEngine::wal_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  WalStatus status;
  status.enabled = options_.enable_wal;
  if (wal_ != nullptr) {
    status.last_lsn = wal_->last_lsn();
    status.durable_lsn = wal_->durable_lsn();
    status.unsynced_records = wal_->unsynced_records();
  }
  return status;
}

void LiveEngine::AddTableDigest(const Table& table) {
  const uint32_t digest = TableContentDigest(table);
  table_digests_[table.name()] = digest;
  digest_rollup_ ^= MixTableDigest(table.name(), digest);
}

void LiveEngine::DropTableDigest(const std::string& name) {
  auto it = table_digests_.find(name);
  if (it == table_digests_.end()) return;
  digest_rollup_ ^= MixTableDigest(name, it->second);
  table_digests_.erase(it);
}

std::map<std::string, uint32_t> LiveEngine::TableDigests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_digests_;
}

uint64_t LiveEngine::RecomputeContentDigest() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t rollup = 0;
  for (TableId id : base_catalog_->AllTables()) {
    const Table& table = base_catalog_->table(id);
    if (tombstone_names_.count(table.name())) continue;
    rollup ^= MixTableDigest(table.name(), TableContentDigest(table));
  }
  for (const std::shared_ptr<const Table>& table : delta_tables_) {
    rollup ^= MixTableDigest(table->name(), TableContentDigest(*table));
  }
  return rollup;
}

std::shared_ptr<const DeltaPart> LiveEngine::BuildDeltaPart() const {
  auto delta = std::make_shared<DeltaPart>();
  delta->catalog = std::make_unique<DataLakeCatalog>();
  for (const std::shared_ptr<const Table>& table : delta_tables_) {
    // Names were validated unique at AddTable time; a failure here would
    // mean the invariant broke, so surface it loudly in debug builds.
    Result<TableId> id = delta->catalog->AddTable(*table);
    LAKE_CHECK(id.ok());
  }
  if (delta->catalog->num_tables() > 0) {
    delta->engine = std::make_unique<DiscoveryEngine>(
        delta->catalog.get(), options_.kb, options_.delta_options);
  }
  for (const std::string& name : tombstone_names_) {
    Result<TableId> id = base_catalog_->FindTable(name);
    // Names not (or no longer) in the base carry no filter work; they are
    // kept in tombstone_names_ until a compaction retires them.
    if (id.ok()) delta->tombstones.insert(id.value());
    delta->tombstone_names.push_back(name);
  }
  return delta;
}

void LiveEngine::Publish() {
  const auto start = Clock::now();
  ++version_;
  auto generation = std::shared_ptr<const Generation>(
      new Generation(number_, version_, base_catalog_, base_engine_,
                     BuildDeltaPart()));
  current_.store(generation, std::memory_order_release);
  version_published_.store(version_, std::memory_order_release);
  digest_published_.store(digest_rollup_, std::memory_order_release);
  if (publishes_ != nullptr) {
    publishes_->Add();
    delta_tables_gauge_->Set(delta_tables_.size());
    tombstones_gauge_->Set(tombstone_names_.size());
    generation_gauge_->Set(number_);
    publish_latency_->Record(MsSince(start) * 1000.0);
  }
}

LiveEngine::BatchOutcome LiveEngine::ApplyBatch(Batch batch) {
  BatchOutcome outcome;
  std::lock_guard<std::mutex> lock(mu_);

  // Crash/abort site for the generation swap: the whole batch is rejected
  // before any state mutates, so a "failed publish" is atomic.
  if (std::optional<FaultSpec> fault = FailpointHit("ingest.publish.swap")) {
    const Status injected =
        Status::IoError("injected fault at ingest.publish.swap");
    outcome.adds.assign(batch.adds.size(), injected);
    outcome.removes.assign(batch.removes.size(), injected);
    return outcome;
  }

  auto in_delta = [&](const std::string& name) {
    return std::find_if(delta_tables_.begin(), delta_tables_.end(),
                        [&](const std::shared_ptr<const Table>& t) {
                          return t->name() == name;
                        });
  };

  // Phase 1 — decide. Acceptance is computed against a simulated view of
  // the post-batch state WITHOUT mutating anything: with a WAL the
  // accepted ops must be on disk before the first real mutation
  // (log-before-apply), so the decisions come first and phase 3 replays
  // them. Removes are processed before adds, as before.
  std::set<std::string> removed_names;  // accepted removes (all tombstone)
  std::set<std::string> batch_added;    // accepted add names so far
  std::vector<std::string> accepted_removes;
  for (const std::string& name : batch.removes) {
    const bool delta_live =
        in_delta(name) != delta_tables_.end() && !removed_names.count(name);
    const bool base_live = base_catalog_->FindTable(name).ok() &&
                           !tombstone_names_.count(name) &&
                           !removed_names.count(name);
    if (delta_live || base_live) {
      outcome.removes.push_back(Status::OK());
      accepted_removes.push_back(name);
      removed_names.insert(name);
    } else {
      outcome.removes.push_back(Status::NotFound("table " + name));
    }
  }
  std::vector<size_t> accepted_adds;  // indices into batch.adds
  for (size_t i = 0; i < batch.adds.size(); ++i) {
    const Table& table = batch.adds[i];
    const std::string& name = table.name();
    if (name.empty() || name.find('/') != std::string::npos) {
      outcome.adds.push_back(
          Status::InvalidArgument("invalid table name: " + name));
      continue;
    }
    const bool delta_live = (in_delta(name) != delta_tables_.end() &&
                             !removed_names.count(name)) ||
                            batch_added.count(name);
    const bool base_live = base_catalog_->FindTable(name).ok() &&
                           !tombstone_names_.count(name) &&
                           !removed_names.count(name);
    if (delta_live || base_live) {
      outcome.adds.push_back(Status::AlreadyExists("table " + name));
      continue;
    }
    batch_added.insert(name);
    accepted_adds.push_back(i);
    outcome.adds.push_back(Result<TableId>(0));  // id assigned in phase 3
  }

  // Phase 2 — log. The accepted ops hit the WAL (and the device, per sync
  // policy) before anything mutates or publishes; a failed append rejects
  // the whole accepted set so "acknowledged" always implies "recoverable".
  if (options_.enable_wal &&
      (!accepted_removes.empty() || !accepted_adds.empty())) {
    std::vector<const Table*> add_ptrs;
    add_ptrs.reserve(accepted_adds.size());
    for (size_t i : accepted_adds) add_ptrs.push_back(&batch.adds[i]);
    Status logged =
        wal_ != nullptr
            ? wal_->Append(EncodeWalBatch(accepted_removes, add_ptrs))
                  .status()
            : Status::FailedPrecondition(
                  "WAL enabled but unavailable (fail-stop)");
    ExportWalMetrics();
    if (!logged.ok()) {
      if (wal_ != nullptr && wal_->dead()) RollWal();
      for (Status& s : outcome.removes) {
        if (s.ok()) s = logged;
      }
      for (Result<TableId>& a : outcome.adds) {
        if (a.ok()) a = logged;
      }
      return outcome;
    }
  }

  // Phase 3 — apply the accepted decisions and publish once.
  for (const std::string& name : accepted_removes) {
    auto it = in_delta(name);
    if (it != delta_tables_.end()) delta_tables_.erase(it);
    // Tombstone even delta removes: if an in-flight compaction already
    // consumed this table, the tombstone masks it in the new base.
    tombstone_names_.insert(name);
    DropTableDigest(name);
    if (tables_removed_ != nullptr) tables_removed_->Add();
  }
  // Lake-visible delta ids are base_count + local position.
  const TableId base_count = static_cast<TableId>(base_catalog_->num_tables());
  size_t next_add = 0;
  for (Result<TableId>& id : outcome.adds) {
    if (!id.ok()) continue;
    id = Result<TableId>(
        static_cast<TableId>(base_count + delta_tables_.size()));
    delta_tables_.push_back(std::make_shared<const Table>(
        std::move(batch.adds[accepted_adds[next_add++]])));
    AddTableDigest(*delta_tables_.back());
    if (tables_added_ != nullptr) tables_added_->Add();
  }

  Publish();
  outcome.published = true;
  return outcome;
}

Result<TableId> LiveEngine::AddTable(Table table) {
  Batch batch;
  batch.adds.push_back(std::move(table));
  BatchOutcome outcome = ApplyBatch(std::move(batch));
  return outcome.adds[0];
}

Status LiveEngine::RemoveTable(const std::string& name) {
  Batch batch;
  batch.removes.push_back(name);
  BatchOutcome outcome = ApplyBatch(std::move(batch));
  return outcome.removes[0];
}

bool LiveEngine::CompactionNeeded(size_t max_delta_tables,
                                  double max_tombstone_ratio) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (delta_tables_.size() >= max_delta_tables && max_delta_tables > 0) {
    return true;
  }
  if (tombstone_names_.empty()) return false;
  const double base = static_cast<double>(
      std::max<size_t>(1, base_catalog_->num_tables()));
  return static_cast<double>(tombstone_names_.size()) / base >
         max_tombstone_ratio;
}

Result<LiveEngine::CompactionStats> LiveEngine::Compact() {
  const auto start = Clock::now();

  // Snapshot the compaction input: surviving base tables + current delta.
  std::shared_ptr<const DataLakeCatalog> old_catalog;
  std::vector<std::shared_ptr<const Table>> consumed;
  std::set<std::string> consumed_tombstones;
  {
    std::lock_guard<std::mutex> lock(mu_);
    old_catalog = base_catalog_;
    consumed = delta_tables_;
    consumed_tombstones = tombstone_names_;
  }

  if (FailpointHit("ingest.compact.build")) {
    if (compaction_failures_ != nullptr) compaction_failures_->Add();
    return Status::IoError("injected fault at ingest.compact.build");
  }

  CompactionStats stats;
  stats.input_base_tables = old_catalog->num_tables();
  stats.input_delta_tables = consumed.size();
  stats.tombstones_cleared = consumed_tombstones.size();

  // Merge: copy survivors, sorted by name, into a fresh catalog — the
  // exact corpus (and id assignment) a cold rebuild over the surviving
  // tables would see, which is what makes post-compaction answers
  // bit-identical to a full rebuild.
  std::vector<const Table*> survivors;
  survivors.reserve(old_catalog->num_tables() + consumed.size());
  for (TableId id : old_catalog->AllTables()) {
    const Table& table = old_catalog->table(id);
    if (!consumed_tombstones.count(table.name())) survivors.push_back(&table);
  }
  for (const std::shared_ptr<const Table>& table : consumed) {
    survivors.push_back(table.get());
  }
  std::sort(survivors.begin(), survivors.end(),
            [](const Table* a, const Table* b) { return a->name() < b->name(); });

  auto merged = std::make_shared<DataLakeCatalog>();
  for (const Table* table : survivors) {
    Result<TableId> id = merged->AddTable(*table);
    if (!id.ok()) {
      if (compaction_failures_ != nullptr) compaction_failures_->Add();
      return Status::Internal("compaction merge rejected " + table->name() +
                              ": " + id.status().ToString());
    }
  }
  stats.output_tables = merged->num_tables();

  // The expensive part — a full index build — runs with no lock held, so
  // ingestion and queries proceed against the old generation meanwhile.
  auto engine = std::make_shared<const DiscoveryEngine>(
      merged.get(), options_.kb, options_.base_options);

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Crash/abort site for the base swap: nothing below mutates until the
    // failpoint passes, so an aborted compaction leaves state untouched.
    if (FailpointHit("ingest.compact.swap")) {
      if (compaction_failures_ != nullptr) compaction_failures_->Add();
      return Status::IoError("injected fault at ingest.compact.swap");
    }
    // Residual delta: tables that arrived while the build ran. Consumed
    // entries are identified by pointer, so a same-named table added
    // after the snapshot survives as delta.
    std::unordered_set<const Table*> consumed_set;
    for (const std::shared_ptr<const Table>& t : consumed) {
      consumed_set.insert(t.get());
    }
    std::vector<std::shared_ptr<const Table>> residual;
    for (std::shared_ptr<const Table>& t : delta_tables_) {
      if (!consumed_set.count(t.get())) residual.push_back(std::move(t));
    }
    delta_tables_ = std::move(residual);
    for (const std::string& name : consumed_tombstones) {
      tombstone_names_.erase(name);
    }
    base_catalog_ = std::move(merged);
    base_engine_ = std::move(engine);
    ++number_;
    stats.generation = number_;
    Publish();
  }

  compactions_.fetch_add(1, std::memory_order_relaxed);
  if (compactions_counter_ != nullptr) {
    compactions_counter_->Add();
    compaction_latency_->Record(MsSince(start) * 1000.0);
  }

  if (options_.store != nullptr && options_.persist_after_compact) {
    // Best-effort: a crash (or injected fault) between swap and persist
    // loses the compaction on disk, never consistency — recovery replays
    // the previous committed generation.
    Status persisted = Checkpoint();
    if (!persisted.ok()) {
      LAKE_LOG(Warning) << "post-compaction checkpoint failed: "
                        << persisted.ToString();
    }
  }

  stats.duration_ms = MsSince(start);
  return stats;
}

Status LiveEngine::Checkpoint() {
  if (options_.store == nullptr) {
    return Status::FailedPrecondition("no snapshot store configured");
  }
  store::SnapshotWriter writer;
  // LSN this snapshot covers: serialization happens under mu_, so every
  // record at or below wal_->last_lsn() is reflected in the sections.
  uint64_t checkpoint_lsn = 0;
  bool advance_wal = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    LAKE_RETURN_IF_ERROR(base_catalog_->SaveSnapshot(&writer));
    LAKE_RETURN_IF_ERROR(base_engine_->SaveIndexSections(&writer));

    if (FailpointHit("ingest.delta.persist")) {
      return Status::IoError("injected fault at ingest.delta.persist");
    }
    for (const std::shared_ptr<const Table>& table : delta_tables_) {
      writer.AddSection(std::string(kDeltaPrefix) + table->name(),
                        WriteCsvString(*table));
      if (HasMetadata(table->metadata())) {
        writer.AddSection(std::string(kDeltaMetaPrefix) + table->name(),
                          SerializeTableMetadata(table->metadata()));
      }
    }
    LAKE_RETURN_IF_ERROR(writer.AddSection(
        kStateSection, [&](BinaryWriter* w) {
          w->WriteVarint(kStateFormatVersion);
          w->WriteVarint(delta_tables_.size());
          for (const std::shared_ptr<const Table>& table : delta_tables_) {
            w->WriteString(table->name());
          }
          w->WriteVarint(tombstone_names_.size());
          for (const std::string& name : tombstone_names_) {
            w->WriteString(name);
          }
          return Status::OK();
        }));
    if (options_.enable_wal && wal_ != nullptr) {
      checkpoint_lsn = wal_->last_lsn();
      advance_wal = true;
      LAKE_RETURN_IF_ERROR(
          writer.AddSection(kWalSection, [&](BinaryWriter* w) {
            w->WriteVarint(kWalFormatVersion);
            w->WriteVarint(checkpoint_lsn);
            return Status::OK();
          }));
    }
  }
  LAKE_ASSIGN_OR_RETURN(uint64_t generation, options_.store->Commit(writer));
  (void)generation;
  if (advance_wal) {
    // The snapshot is the commit point: records up to checkpoint_lsn are
    // durable through it, so the floor advances and covered segments go.
    std::lock_guard<std::mutex> lock(mu_);
    if (wal_ != nullptr) {
      wal_->set_durable_lsn(checkpoint_lsn);
      Status gc = wal_->GarbageCollect(checkpoint_lsn);
      if (!gc.ok()) {
        LAKE_LOG(Warning) << "WAL GC failed: " << gc.ToString();
      }
      ExportWalMetrics();
    }
  }
  return Status::OK();
}

namespace {

// Replay applies records that were acknowledged and durably logged, so
// over-replay is the only benign rejection (AlreadyExists adds, NotFound
// removes — ApplyBatch re-validating what the checkpoint already holds).
// Any other rejection — a transient publish failure, ENOSPC, an injected
// fault — must abort recovery: continuing past it silently drops an
// acknowledged mutation, which reads as loss (dropped add) or
// resurrection (dropped remove) once the engine serves again.
Status FatalReplayError(const LiveEngine::BatchOutcome& outcome) {
  auto benign = [](const Status& s) {
    return s.code() == StatusCode::kAlreadyExists ||
           s.code() == StatusCode::kNotFound;
  };
  for (const Status& s : outcome.removes) {
    if (!s.ok() && !benign(s)) return s;
  }
  for (const Result<TableId>& a : outcome.adds) {
    if (!a.ok() && !benign(a.status())) return a.status();
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<LiveEngine>> LiveEngine::Recover(
    store::SnapshotStore* store, Options options, RecoveryReport* report) {
  if (store == nullptr) {
    return Status::InvalidArgument("null snapshot store");
  }
  // Recovering from a store implies persisting to it: later Checkpoint /
  // post-compaction commits go to the same place the state came from.
  options.store = store;
  // Replay (snapshot delta and WAL records alike) goes through ApplyBatch
  // and must not be re-logged; the writer is opened only once the log has
  // been fully consumed, so the flag stays off until then.
  const bool wal_enabled = options.enable_wal;
  options.enable_wal = false;
  RecoveryReport local_report;
  RecoveryReport& rep = report != nullptr ? *report : local_report;

  LAKE_ASSIGN_OR_RETURN(store::SnapshotStore::Opened opened,
                        store->OpenLatest());
  rep.snapshot_generation = opened.generation;
  const store::SnapshotReader& reader = opened.reader;

  // Base catalog from the committed envelope (corrupt table sections are
  // quarantined by LoadSnapshot; SnapshotStore commits are atomic, so in
  // practice the committed generation parses whole).
  auto catalog = std::make_shared<DataLakeCatalog>();
  LAKE_ASSIGN_OR_RETURN(std::vector<TableId> loaded,
                        catalog->LoadSnapshot(reader));
  rep.tables_loaded = loaded.size();

  // Base indexes: prefer the persisted sections (skips the O(lake)
  // build); a section that is missing, corrupt, or fails validation makes
  // Restore build both from the loaded tables, so the recovered base is
  // never degraded.
  std::unique_ptr<DiscoveryEngine> engine = DiscoveryEngine::Restore(
      catalog.get(), options.kb, options.base_options, reader,
      &rep.index_sections_loaded, &rep.index_sections_rebuilt);

  auto live = std::unique_ptr<LiveEngine>(
      new LiveEngine(catalog, std::shared_ptr<const DiscoveryEngine>(
                                  std::move(engine)),
                     std::move(options)));
  live->number_ = opened.generation;

  // Replay the persisted delta. A missing state section is a pre-ingest
  // snapshot (empty delta); a corrupt one drops the whole delta — the
  // base is still consistent, recovery just loses the uncompacted tail.
  if (!reader.has_section(kStateSection)) {
    {
      std::lock_guard<std::mutex> lock(live->mu_);
      live->Publish();  // refresh generation number
    }
    return FinishRecovery(std::move(live), reader, wal_enabled, &rep);
  }
  Batch replay;
  Result<std::string> state = reader.ReadSection(kStateSection);
  if (state.ok()) {
    std::istringstream in(state.value());
    BinaryReader r(&in);
    auto parse = [&]() -> Status {
      LAKE_ASSIGN_OR_RETURN(uint64_t format, r.ReadVarint());
      if (format != kStateFormatVersion) {
        return Status::IoError("unknown ingest state version " +
                               std::to_string(format));
      }
      LAKE_ASSIGN_OR_RETURN(uint64_t num_deltas, r.ReadVarint());
      for (uint64_t i = 0; i < num_deltas; ++i) {
        LAKE_ASSIGN_OR_RETURN(std::string name, r.ReadString());
        Result<std::string> csv =
            reader.ReadSection(std::string(kDeltaPrefix) + name);
        if (!csv.ok()) {
          LAKE_LOG(Warning) << "dropping delta table " << name << ": "
                            << csv.status().ToString();
          ++rep.deltas_dropped;
          continue;
        }
        Result<Table> table = ReadCsvString(csv.value(), name);
        if (!table.ok()) {
          LAKE_LOG(Warning) << "dropping delta table " << name << ": "
                            << table.status().ToString();
          ++rep.deltas_dropped;
          continue;
        }
        // Companion metadata (see table_meta.h); damage costs the
        // metadata, never the table.
        const std::string meta_section = std::string(kDeltaMetaPrefix) + name;
        if (reader.has_section(meta_section)) {
          Result<std::string> meta_bytes = reader.ReadSection(meta_section);
          Result<TableMetadata> meta =
              meta_bytes.ok() ? ParseTableMetadata(*meta_bytes)
                              : Result<TableMetadata>(meta_bytes.status());
          if (meta.ok()) {
            table->metadata() = std::move(meta).value();
          } else {
            LAKE_LOG(Warning) << "dropping metadata of delta table " << name
                              << ": " << meta.status().ToString();
          }
        }
        replay.adds.push_back(std::move(table).value());
      }
      LAKE_ASSIGN_OR_RETURN(uint64_t num_tombstones, r.ReadVarint());
      for (uint64_t i = 0; i < num_tombstones; ++i) {
        LAKE_ASSIGN_OR_RETURN(std::string name, r.ReadString());
        replay.removes.push_back(std::move(name));
      }
      return Status::OK();
    };
    Status parsed = parse();
    if (!parsed.ok()) {
      LAKE_LOG(Warning) << "ingest state unreadable, dropping delta: "
                        << parsed.ToString();
      rep.deltas_dropped += replay.adds.size();
      replay = Batch{};
    }
  } else {
    LAKE_LOG(Warning) << "ingest state section corrupt, dropping delta: "
                      << state.status().ToString();
  }
  rep.tombstones_replayed = replay.removes.size();
  const size_t attempted = replay.adds.size();
  BatchOutcome outcome = live->ApplyBatch(std::move(replay));
  Status delta_fatal = FatalReplayError(outcome);
  if (!delta_fatal.ok()) {
    return Status::IoError("replaying checkpointed delta failed: " +
                           delta_fatal.ToString());
  }
  for (const Result<TableId>& add : outcome.adds) {
    if (add.ok()) {
      ++rep.deltas_replayed;
    } else {
      ++rep.deltas_dropped;
    }
  }
  (void)attempted;
  return FinishRecovery(std::move(live), reader, wal_enabled, &rep);
}

Result<std::unique_ptr<LiveEngine>> LiveEngine::FinishRecovery(
    std::unique_ptr<LiveEngine> live, const store::SnapshotReader& reader,
    bool wal_enabled, RecoveryReport* rep) {
  // Durable LSN from the checkpoint: records at or below it are already
  // part of the loaded state. Missing section = pre-WAL snapshot; an
  // unreadable one conservatively replays the whole log (ApplyBatch
  // rejects already-present adds individually, so over-replay degrades to
  // per-op AlreadyExists/NotFound, not corruption).
  uint64_t durable_lsn = 0;
  if (reader.has_section(kWalSection)) {
    Result<std::string> wal_state = reader.ReadSection(kWalSection);
    auto parse_lsn = [&]() -> Result<uint64_t> {
      std::istringstream in(wal_state.value());
      BinaryReader r(&in);
      LAKE_ASSIGN_OR_RETURN(uint64_t format, r.ReadVarint());
      if (format != kWalFormatVersion) {
        return Status::IoError("unknown ingest/wal section format " +
                               std::to_string(format));
      }
      return r.ReadVarint();
    };
    Result<uint64_t> lsn =
        wal_state.ok() ? parse_lsn() : Result<uint64_t>(wal_state.status());
    if (lsn.ok()) {
      durable_lsn = lsn.value();
    } else {
      LAKE_LOG(Warning) << "ingest/wal section unreadable; replaying the "
                           "whole log: "
                        << lsn.status().ToString();
    }
  }
  rep->wal_durable_lsn = durable_lsn;
  if (!wal_enabled) return live;

  Result<store::WalReader::ReplayStats> replayed = store::WalReader::Replay(
      live->WalDir(), durable_lsn,
      [&](uint64_t lsn, std::string_view payload) -> Status {
        Result<Batch> decoded = DecodeWalBatch(payload);
        if (!decoded.ok()) {
          // CRC-valid but undecodable: a future format or a writer bug,
          // not a torn tail. Skip the record rather than refuse to start.
          LAKE_LOG(Warning) << "skipping undecodable WAL record " << lsn
                            << ": " << decoded.status().ToString();
          return Status::OK();
        }
        BatchOutcome applied = live->ApplyBatch(std::move(decoded).value());
        Status fatal = FatalReplayError(applied);
        if (!fatal.ok()) {
          return Status::IoError("replaying WAL record " +
                                 std::to_string(lsn) +
                                 " failed: " + fatal.ToString());
        }
        ++rep->wal_records_replayed;
        return Status::OK();
      });
  if (!replayed.ok()) return replayed.status();
  rep->wal_truncated_bytes = replayed.value().truncated_bytes;
  rep->wal_last_lsn = std::max(replayed.value().last_lsn, durable_lsn);
  if (!replayed.value().clean) {
    LAKE_LOG(Warning) << "WAL torn tail: truncated "
                      << replayed.value().truncated_bytes
                      << " bytes after LSN " << replayed.value().last_lsn;
  }

  std::lock_guard<std::mutex> lock(live->mu_);
  live->options_.enable_wal = true;
  // Reopen past everything seen, on a fresh segment: a torn tail is never
  // appended after.
  Status opened = live->OpenWal(rep->wal_last_lsn + 1);
  if (!opened.ok()) {
    LAKE_LOG(Warning) << "WAL reopen failed (mutations fail-stop): "
                      << opened.ToString();
  }
  if (live->wal_ != nullptr) live->wal_->set_durable_lsn(durable_lsn);
  if (live->wal_replayed_ != nullptr) {
    live->wal_replayed_->Add(rep->wal_records_replayed);
    live->wal_truncated_bytes_->Add(rep->wal_truncated_bytes);
  }
  live->ExportWalMetrics();
  return live;
}

size_t LiveEngine::num_delta_tables() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delta_tables_.size();
}

size_t LiveEngine::num_tombstones() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tombstone_names_.size();
}

}  // namespace lake::ingest
