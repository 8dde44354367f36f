#ifndef LAKE_STORE_SNAPSHOT_H_
#define LAKE_STORE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace lake::store {

/// Crash-safe persistence for the system's indexes and catalog.
///
/// Snapshot envelope (all integers little-endian):
///
///   header   fixed32 magic "LKS1" (0x31534b4c), fixed32 version (=1),
///            varint section_count
///   section  varint name_len, name bytes,
///            fixed64 payload_size,
///            fixed32 meta_crc    = CRC32C(name || le64(payload_size)),
///            fixed32 payload_crc = CRC32C(payload),
///            payload bytes
///
/// Every section is independently checksummed so a reader can load the
/// sections that verify and quarantine the rest: one flipped bit never
/// poisons a whole snapshot. The framing itself (name + size) carries its
/// own CRC, so a corrupted length prefix is detected instead of walking
/// the reader into garbage; framing damage in section i still leaves
/// sections 0..i-1 loadable.
constexpr uint32_t kSnapshotMagic = 0x31534b4c;  // "LKS1"
constexpr uint32_t kSnapshotVersion = 1;

/// Writes `bytes` to `path` atomically: temp file in the same directory →
/// write → fsync → rename → fsync(dir). Readers never observe a partial
/// file; a crash leaves either the old file or the new one. Failpoints
/// `<failpoint_prefix>.write`, `.fsync`, and `.rename` let tests inject
/// torn writes, ENOSPC, and crashes between the steps.
Status AtomicWriteFile(const std::string& path, std::string_view bytes,
                       const std::string& failpoint_prefix = "atomic_write");

/// Accumulates named sections and serializes them into one envelope.
class SnapshotWriter {
 public:
  /// Adds a raw payload section. Names must be unique per snapshot.
  void AddSection(std::string name, std::string payload);

  /// Convenience: builds the payload with a BinaryWriter over a fresh
  /// buffer; `fn`'s error aborts the add.
  Status AddSection(std::string name,
                    const std::function<Status(BinaryWriter*)>& fn);

  /// The complete envelope (header + all sections).
  std::string Serialize() const;

  /// Serializes and writes atomically (see AtomicWriteFile); failpoint
  /// prefix "snapshot".
  Status WriteToFile(const std::string& path) const;

  size_t num_sections() const { return sections_.size(); }

 private:
  struct Section {
    std::string name;
    std::string payload;
  };
  std::vector<Section> sections_;
};

/// Parses an envelope held in memory and serves CRC-verified sections.
/// Parsing validates magic/version and walks section framing; payload
/// CRCs are checked lazily per ReadSection, so one corrupt section does
/// not block access to the healthy ones.
class SnapshotReader {
 public:
  struct SectionInfo {
    std::string name;
    uint64_t offset = 0;  // payload offset within the envelope
    uint64_t size = 0;    // payload size
    uint32_t payload_crc = 0;
  };

  /// Parses an envelope from memory (takes ownership of the bytes).
  /// Fails only when the header (magic/version) is unreadable; damaged
  /// section framing truncates `sections()` and is reported by
  /// `framing_status()` while earlier sections stay readable.
  static Result<SnapshotReader> Parse(std::string bytes);

  /// Reads a whole file, then Parse.
  static Result<SnapshotReader> OpenFile(const std::string& path);

  /// Sections with intact framing, in file order.
  const std::vector<SectionInfo>& sections() const { return sections_; }

  bool has_section(std::string_view name) const;

  /// The payload of `name`, verified against its CRC32C. NotFound for
  /// unknown/unframed sections, IoError("section checksum mismatch") for
  /// corrupt payloads.
  Result<std::string> ReadSection(std::string_view name) const;

  /// OK when every declared section framed correctly; the parse error
  /// otherwise (sections after the damage are unreachable).
  const Status& framing_status() const { return framing_status_; }

 private:
  std::string bytes_;
  std::vector<SectionInfo> sections_;
  Status framing_status_;
};

/// Generation-numbered snapshot directory with a MANIFEST commit point:
///
///   <dir>/snap-<generation>.lks   envelope files
///   <dir>/MANIFEST                text: "LAKE-MANIFEST v1" header, then
///                                 one "<generation> <filename> <size>"
///                                 line per retained generation, oldest
///                                 first; rewritten atomically
///
/// A generation exists once its envelope file is durably renamed AND the
/// MANIFEST lists it — the MANIFEST rename is the commit point. Recovery
/// (OpenLatest) walks the MANIFEST newest-first and returns the first
/// generation whose envelope still parses, so a crash mid-commit (torn
/// envelope write, failed fsync, failed rename) always falls back to the
/// last fully-committed generation. A missing/garbled MANIFEST degrades
/// to a directory scan over snap-*.lks.
class SnapshotStore {
 public:
  struct Options {
    /// Committed generations retained (older envelopes are pruned). Two
    /// generations keep a full fallback while bounding disk use.
    size_t keep_generations = 2;
  };

  explicit SnapshotStore(std::string dir) : SnapshotStore(std::move(dir), Options{}) {}
  SnapshotStore(std::string dir, Options options);

  /// Commits `snapshot` as the next generation. On any failure the store
  /// is unchanged and the previous generation remains current.
  Result<uint64_t> Commit(const SnapshotWriter& snapshot);

  struct Opened {
    uint64_t generation = 0;
    SnapshotReader reader;
  };

  /// The newest committed generation whose envelope parses. NotFound when
  /// no generation is recoverable.
  Result<Opened> OpenLatest() const;

  /// Retained generations per the MANIFEST (directory scan fallback),
  /// ascending. Entries are not validated beyond listing.
  std::vector<uint64_t> Generations() const;

  /// Outcome of the most recent directory scan (Generations/OpenLatest
  /// fall back to a scan when the MANIFEST is missing or garbled). A
  /// failed scan — permissions, deleted directory, I/O error — used to be
  /// silently indistinguishable from an empty store; now it is logged and
  /// surfaced here, and OpenLatest reports IoError instead of NotFound.
  Status last_scan_status() const;

  const std::string& dir() const { return dir_; }

  static std::string SnapshotFileName(uint64_t generation);

 private:
  std::string ManifestPath() const;
  std::string SnapshotPath(uint64_t generation) const;
  /// Parses MANIFEST lines into generations (malformed lines skipped).
  std::vector<uint64_t> ReadManifest() const;
  /// Lists snap-*.lks generations; records iteration failures in
  /// last_scan_status_ instead of pretending the store is empty.
  std::vector<uint64_t> ScanDirectory() const;

  std::string dir_;
  Options options_;
  mutable std::mutex scan_mu_;
  mutable Status last_scan_status_;
};

}  // namespace lake::store

#endif  // LAKE_STORE_SNAPSHOT_H_
