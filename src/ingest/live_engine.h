#ifndef LAKE_INGEST_LIVE_ENGINE_H_
#define LAKE_INGEST_LIVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "ingest/generation.h"
#include "serve/metrics.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "util/status.h"

namespace lake::ingest {

/// Deterministic digest of one table: CRC32C chained over the canonical
/// serialization (name, CSV bytes, then metadata when present — the same
/// bytes the WAL and snapshot delta sections persist). Two tables with
/// identical visible content digest identically regardless of how they
/// were ingested (cold build, delta add, WAL replay, repair copy).
uint32_t TableContentDigest(const Table& table);

/// Online ingestion over a DiscoveryEngine: the survey's frozen-corpus
/// indexes made dynamic with an LSM-style base+delta split.
///
///   - The *base* is an immutable catalog + fully-indexed DiscoveryEngine
///     (JOSIE postings, LSH-Ensemble buckets, HNSW graph, ...), exactly
///     what a cold build produces.
///   - The *delta* is a bounded memtable: tables added since the last
///     compaction, indexed by a small DiscoveryEngine built over only
///     those tables (O(delta) per publish, never O(lake)), plus
///     tombstones masking removed base tables.
///   - Every mutation publishes a fresh immutable Generation via an
///     atomic shared_ptr swap; readers Acquire() and query without locks
///     while the swapped-out generation drains RCU-style.
///   - Compact() folds the delta into a fresh base off the serving path
///     and swaps generations; the result is bit-identical to a cold
///     rebuild over the surviving corpus (tables sorted by name), so
///     compaction restores exact single-index answers.
///
/// Thread-safety: any number of reader threads may Acquire()/query
/// concurrently with one another and with mutators. Mutations
/// (AddTable/RemoveTable/ApplyBatch/Compact/Checkpoint) are serialized
/// internally; the heavy compaction build runs outside that lock.
class LiveEngine {
 public:
  struct Options {
    /// Options for the base engine (compaction rebuilds, Recover). Must
    /// match the options the initial base engine was built with.
    DiscoveryEngine::Options base_options;
    /// Options for the delta memtable engine. The default keeps the
    /// mergeable modalities (keyword, exact join, LSH Ensemble, JOSIE,
    /// TUS, Starmie) and drops the heavyweight long tail; embedding_dim
    /// is copied from base_options at construction so base and delta
    /// score in the same embedding space.
    DiscoveryEngine::Options delta_options = DefaultDeltaOptions();
    /// Optional curated KB handed to every engine build.
    const KnowledgeBase* kb = nullptr;
    /// Optional durability: Checkpoint() and post-compaction persistence
    /// commit through this store. Not owned.
    store::SnapshotStore* store = nullptr;
    /// Optional metrics sink (ingest.* counters/gauges/histograms).
    serve::MetricsRegistry* metrics = nullptr;
    /// Checkpoint automatically after every successful compaction (only
    /// meaningful with a store).
    bool persist_after_compact = true;
    /// Write-ahead logging (requires a store; segments live in
    /// "<store dir>/wal"). Every accepted mutation batch is appended —
    /// and synced, per wal_options.sync — BEFORE it is applied and
    /// acknowledged, so Recover() replays acknowledged work a crash
    /// would otherwise lose between checkpoints. If the log cannot be
    /// opened or appended, the batch is rejected (fail-stop), never
    /// acknowledged-but-volatile.
    bool enable_wal = false;
    store::WalWriter::Options wal_options;

    static DiscoveryEngine::Options DefaultDeltaOptions();
  };

  /// Wraps an already-built base. `base_engine` must have been built over
  /// `*base_catalog` with options equal to `options.base_options`.
  LiveEngine(std::shared_ptr<const DataLakeCatalog> base_catalog,
             std::shared_ptr<const DiscoveryEngine> base_engine,
             Options options);

  /// Builds the base engine from the catalog (cold start convenience).
  LiveEngine(std::shared_ptr<const DataLakeCatalog> base_catalog,
             Options options);

  /// Snapshot section names of the ingest state (alongside the base's
  /// "table/<name>" and "index/..." sections).
  static constexpr const char* kStateSection = "ingest/state";
  static constexpr const char* kDeltaPrefix = "ingest/delta/";
  /// Durable-LSN marker: records at or below it are covered by this
  /// snapshot; Recover() replays only WAL records past it. A separate
  /// section (not a state-format bump) so pre-WAL readers still parse
  /// every WAL-era snapshot.
  static constexpr const char* kWalSection = "ingest/wal";

  // --- Read path --------------------------------------------------------

  /// Current generation; queries run against the acquired snapshot (see
  /// MergedKeyword / MergedJoinable / MergedUnionable / MergedCorrelated)
  /// and never block ingestion or compaction.
  std::shared_ptr<const Generation> Acquire() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Publish sequence of the current generation (cache-key ingredient).
  uint64_t version() const {
    return version_published_.load(std::memory_order_acquire);
  }

  // --- Content digests ---------------------------------------------------

  /// Rolled-up digest of the *visible* content (base minus tombstones plus
  /// delta): an order-independent combination of per-table digests, so two
  /// engines with the same visible tables report the same value no matter
  /// how the content is split between base and delta or in what order it
  /// arrived. Compaction therefore never changes it; divergence (a missed
  /// write, a dropped delta section, a bit-flipped recovery) always does.
  /// 0 for an empty lake. Maintained incrementally (O(changed tables) per
  /// mutation) and published with each generation; lock-free to read.
  uint64_t content_digest() const {
    return digest_published_.load(std::memory_order_acquire);
  }

  /// Per-table digests of every visible table, keyed by name — the
  /// drill-down side of content_digest(): two engines whose rollups
  /// disagree diff these maps to find exactly which tables diverged.
  std::map<std::string, uint32_t> TableDigests() const;

  /// Recomputes the rollup from scratch over the current generation's
  /// visible tables (O(lake)); tests use it to prove the incremental
  /// maintenance never drifts.
  uint64_t RecomputeContentDigest() const;

  // --- Mutations --------------------------------------------------------

  struct Batch {
    std::vector<Table> adds;
    std::vector<std::string> removes;
  };
  struct BatchOutcome {
    /// Lake-visible id per add, in Batch order (ids are generation-scoped).
    std::vector<Result<TableId>> adds;
    std::vector<Status> removes;
    bool published = false;
  };

  /// Applies removes then adds, then publishes ONE new generation. Failed
  /// entries (duplicate name, unknown remove) are reported individually
  /// and do not block the rest of the batch. Failpoint
  /// "ingest.publish.swap" rejects the whole batch atomically.
  BatchOutcome ApplyBatch(Batch batch);

  /// Single-table conveniences over ApplyBatch.
  Result<TableId> AddTable(Table table);
  Status RemoveTable(const std::string& name);

  // --- Compaction -------------------------------------------------------

  struct CompactionStats {
    uint64_t generation = 0;  // generation number after the swap
    size_t input_base_tables = 0;
    size_t input_delta_tables = 0;
    size_t tombstones_cleared = 0;
    size_t output_tables = 0;
    double duration_ms = 0;
  };

  /// Folds the delta into a fresh immutable base: copies the surviving
  /// tables (base minus tombstones plus delta) into a new catalog in
  /// sorted-name order, builds a full DiscoveryEngine over it off the
  /// serving path, and atomically swaps generations. Tables ingested
  /// while the build ran stay in the residual delta. Failpoints
  /// "ingest.compact.build" (before the build) and "ingest.compact.swap"
  /// (before the swap) abort with the engine state unchanged. With a
  /// store and persist_after_compact, the new generation is checkpointed
  /// after the swap (a crash between swap and persist costs only the
  /// compaction, never consistency).
  Result<CompactionStats> Compact();

  /// True when the delta size or tombstone ratio warrants a compaction.
  bool CompactionNeeded(size_t max_delta_tables,
                        double max_tombstone_ratio) const;

  // --- Durability -------------------------------------------------------

  /// Commits the full live state — base catalog ("table/<name>"), base
  /// index sections ("index/..."), delta tables ("ingest/delta/<name>"),
  /// and tombstones + delta order ("ingest/state") — as one snapshot
  /// generation. On any failure (failpoint "ingest.delta.persist"
  /// included) the store keeps its previous generation. FailedPrecondition
  /// without a store.
  Status Checkpoint();

  struct RecoveryReport {
    uint64_t snapshot_generation = 0;
    size_t tables_loaded = 0;
    /// Base index sections the recovered engine serves from the snapshot
    /// and those it built from the tables instead. All or nothing (see
    /// DiscoveryEngine::Restore): one bad section rebuilds every one.
    size_t index_sections_loaded = 0;
    size_t index_sections_rebuilt = 0;
    size_t deltas_replayed = 0;
    size_t deltas_dropped = 0;
    size_t tombstones_replayed = 0;
    /// WAL records (mutation batches) replayed past the checkpoint LSN.
    uint64_t wal_records_replayed = 0;
    /// Bytes cut from the log's torn/corrupt tail (0 on a clean log).
    uint64_t wal_truncated_bytes = 0;
    /// LSN the checkpoint declared durable; replay starts after it.
    uint64_t wal_durable_lsn = 0;
    /// Highest valid LSN found in the log.
    uint64_t wal_last_lsn = 0;
  };

  /// Rebuilds a LiveEngine from the newest committed snapshot generation:
  /// loads the base catalog from one envelope and restores the base engine
  /// from the same envelope through DiscoveryEngine::Restore (a section
  /// that fails its CRC or validation rebuilds the persistable indexes
  /// from the loaded tables — recovery never serves a degraded base), then
  /// replays the persisted delta tables and tombstones; corrupt delta
  /// sections are dropped, costing staleness, not startup.
  /// Pre-ingest (PR 2 era) snapshots without ingest sections recover to
  /// an empty delta.
  static Result<std::unique_ptr<LiveEngine>> Recover(
      store::SnapshotStore* store, Options options,
      RecoveryReport* report = nullptr);

  // --- Introspection ----------------------------------------------------

  size_t num_delta_tables() const;
  size_t num_tombstones() const;
  uint64_t compactions() const {
    return compactions_.load(std::memory_order_relaxed);
  }
  const Options& options() const { return options_; }

  /// Point-in-time WAL health (all zero when the WAL is disabled).
  /// unsynced_records is the live loss window: acknowledged mutations a
  /// crash right now would lose (always 0 under SyncPolicy::kEveryAppend).
  struct WalStatus {
    bool enabled = false;
    uint64_t last_lsn = 0;
    uint64_t durable_lsn = 0;
    uint64_t unsynced_records = 0;
  };
  WalStatus wal_status() const;

 private:
  /// Builds a DeltaPart from the mutable state and resolves tombstone
  /// names against `base_catalog`. Caller holds mu_.
  std::shared_ptr<const DeltaPart> BuildDeltaPart() const;
  /// Folds one table into / out of the incremental rollup. Caller holds
  /// mu_ (or is the constructor).
  void AddTableDigest(const Table& table);
  void DropTableDigest(const std::string& name);
  /// Publishes a new generation from the current state. Caller holds mu_.
  void Publish();
  void InitMetrics();

  /// "<store dir>/wal"; empty without a store.
  std::string WalDir() const;
  /// Recover() tail: reads the checkpoint's durable LSN, replays WAL
  /// records past it, and opens the writer on a fresh segment.
  static Result<std::unique_ptr<LiveEngine>> FinishRecovery(
      std::unique_ptr<LiveEngine> live, const store::SnapshotReader& reader,
      bool wal_enabled, RecoveryReport* rep);
  /// Opens the writer per options_ (fail-stop: an unopenable log disables
  /// acknowledgement, not durability). Caller holds mu_.
  Status OpenWal(uint64_t next_lsn);
  void RollWal();
  /// Diffs writer stats into the monotonic ingest.wal.* counters and
  /// refreshes the unsynced-records gauge. Caller holds mu_.
  void ExportWalMetrics();

  Options options_;

  /// Serializes mutations; readers never take it.
  mutable std::mutex mu_;
  // --- state under mu_ --------------------------------------------------
  std::shared_ptr<const DataLakeCatalog> base_catalog_;
  std::shared_ptr<const DiscoveryEngine> base_engine_;
  /// Master copies of live delta tables, arrival order. shared_ptr so a
  /// compaction snapshot can identify consumed entries by pointer even if
  /// a name is removed and re-added while the build runs.
  std::vector<std::shared_ptr<const Table>> delta_tables_;
  /// Names removed since the compaction that will physically drop them.
  std::set<std::string> tombstone_names_;
  uint64_t number_ = 0;   // compaction generation
  uint64_t version_ = 0;  // publish sequence
  /// Per-visible-table content digests + their order-independent rollup,
  /// maintained incrementally alongside the visible set.
  std::map<std::string, uint32_t> table_digests_;
  uint64_t digest_rollup_ = 0;
  /// Log-before-apply journal (null when disabled or the open failed —
  /// then every mutation is rejected fail-stop while enable_wal is set).
  std::unique_ptr<store::WalWriter> wal_;
  // ----------------------------------------------------------------------

  std::atomic<std::shared_ptr<const Generation>> current_;
  std::atomic<uint64_t> version_published_{0};
  std::atomic<uint64_t> digest_published_{0};
  std::atomic<uint64_t> compactions_{0};

  // Metric handles (null without a registry).
  serve::Counter* tables_added_ = nullptr;
  serve::Counter* tables_removed_ = nullptr;
  serve::Counter* publishes_ = nullptr;
  serve::Counter* compactions_counter_ = nullptr;
  serve::Counter* compaction_failures_ = nullptr;
  serve::Gauge* delta_tables_gauge_ = nullptr;
  serve::Gauge* tombstones_gauge_ = nullptr;
  serve::Gauge* generation_gauge_ = nullptr;
  serve::LatencyHistogram* publish_latency_ = nullptr;
  serve::LatencyHistogram* compaction_latency_ = nullptr;
  serve::Counter* wal_appends_ = nullptr;
  serve::Counter* wal_bytes_ = nullptr;
  serve::Counter* wal_fsyncs_ = nullptr;
  serve::Counter* wal_replayed_ = nullptr;
  serve::Counter* wal_truncated_bytes_ = nullptr;
  serve::Gauge* wal_unsynced_gauge_ = nullptr;
  /// Writer stats already exported to the counters (counters are
  /// monotonic; writer stats reset when the writer is reopened).
  store::WalWriter::Stats wal_exported_;
};

}  // namespace lake::ingest

#endif  // LAKE_INGEST_LIVE_ENGINE_H_
