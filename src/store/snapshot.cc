#include "store/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace lake::store {

namespace {

namespace fs = std::filesystem;

/// CRC over a section's framing: name bytes followed by the payload size
/// as little-endian 64-bit, so a flipped bit in either is caught before
/// the reader trusts the length.
uint32_t FramingCrc(std::string_view name, uint64_t payload_size) {
  uint32_t crc = Crc32cExtend(0, name.data(), name.size());
  char le[8];
  for (int i = 0; i < 8; ++i) {
    le[i] = static_cast<char>((payload_size >> (8 * i)) & 0xff);
  }
  return Crc32cExtend(crc, le, sizeof(le));
}

Status CloseAndError(int fd, const std::string& tmp, std::string msg) {
  if (fd >= 0) ::close(fd);
  std::error_code ec;
  fs::remove(tmp, ec);  // best effort: don't leave torn temp files behind
  return Status::IoError(std::move(msg));
}

}  // namespace

Status AtomicWriteFile(const std::string& path, std::string_view bytes,
                       const std::string& failpoint_prefix) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }

  // Failpoint: torn write (only a prefix persists) or ENOSPC mid-write.
  size_t to_write = bytes.size();
  if (auto fault = FailpointHit(failpoint_prefix + ".write")) {
    switch (fault->kind) {
      case FaultSpec::Kind::kTornWrite:
        to_write = std::min<size_t>(to_write, fault->arg);
        break;
      case FaultSpec::Kind::kEnospc:
      case FaultSpec::Kind::kError:
        to_write = std::min<size_t>(to_write, fault->arg);
        break;
      default:
        break;
    }
    if (!FullWrite(fd, bytes.data(), to_write).ok()) {
      return CloseAndError(fd, tmp, "write failed: " + tmp);
    }
    ::close(fd);
    // The torn temp file is deliberately left on disk: it simulates a
    // crash mid-checkpoint, and recovery must ignore it.
    return Status::IoError(
        fault->kind == FaultSpec::Kind::kEnospc
            ? "no space left on device (injected): " + tmp
            : "torn write (injected): " + tmp);
  }

  // EINTR-safe full write: POSIX lets ::write persist a prefix; treating
  // that as success would commit a torn file under a valid rename.
  Status written = FullWrite(fd, bytes.data(), bytes.size());
  if (!written.ok()) {
    return CloseAndError(fd, tmp, written.message() + ": " + tmp);
  }

  if (FailpointHit(failpoint_prefix + ".fsync").has_value() ||
      !FsyncRetry(fd).ok()) {
    return CloseAndError(fd, tmp, "fsync failed: " + tmp);
  }
  if (::close(fd) != 0) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return Status::IoError("close failed: " + tmp);
  }

  if (FailpointHit(failpoint_prefix + ".rename").has_value() ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return Status::IoError("rename failed: " + tmp + " -> " + path);
  }

  // Make the rename itself durable: fsync the containing directory.
  const std::string dir = fs::path(path).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                         O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

// --- SnapshotWriter ------------------------------------------------------

void SnapshotWriter::AddSection(std::string name, std::string payload) {
  sections_.push_back(Section{std::move(name), std::move(payload)});
}

Status SnapshotWriter::AddSection(
    std::string name, const std::function<Status(BinaryWriter*)>& fn) {
  std::ostringstream buf;
  BinaryWriter w(&buf);
  LAKE_RETURN_IF_ERROR(fn(&w));
  if (!w.ok()) return Status::IoError("section payload write failed: " + name);
  AddSection(std::move(name), std::move(buf).str());
  return Status::OK();
}

std::string SnapshotWriter::Serialize() const {
  std::ostringstream out;
  BinaryWriter w(&out);
  w.WriteFixed32(kSnapshotMagic);
  w.WriteFixed32(kSnapshotVersion);
  w.WriteVarint(sections_.size());
  for (const Section& s : sections_) {
    w.WriteString(s.name);
    w.WriteFixed64(s.payload.size());
    w.WriteFixed32(FramingCrc(s.name, s.payload.size()));
    w.WriteFixed32(Crc32c(s.payload));
    out.write(s.payload.data(),
              static_cast<std::streamsize>(s.payload.size()));
  }
  return std::move(out).str();
}

Status SnapshotWriter::WriteToFile(const std::string& path) const {
  return AtomicWriteFile(path, Serialize(), "snapshot");
}

// --- SnapshotReader ------------------------------------------------------

Result<SnapshotReader> SnapshotReader::Parse(std::string bytes) {
  SnapshotReader reader;
  reader.bytes_ = std::move(bytes);

  std::istringstream in(reader.bytes_);
  BinaryReader r(&in);
  LAKE_ASSIGN_OR_RETURN(uint32_t magic, r.ReadFixed32());
  if (magic != kSnapshotMagic) {
    return Status::IoError("not a snapshot envelope (bad magic)");
  }
  LAKE_ASSIGN_OR_RETURN(uint32_t version, r.ReadFixed32());
  if (version != kSnapshotVersion) {
    return Status::IoError("unsupported snapshot version " +
                           std::to_string(version));
  }
  LAKE_ASSIGN_OR_RETURN(uint64_t count, r.ReadVarint());
  if (count > (1ULL << 20)) {
    return Status::IoError("implausible section count");
  }

  // Walk section framing. The first framing failure stops the walk:
  // the byte stream beyond a lying length prefix cannot be trusted, but
  // everything before it stays loadable.
  for (uint64_t i = 0; i < count; ++i) {
    auto fail = [&](std::string msg) {
      reader.framing_status_ = Status::IoError(std::move(msg));
    };
    auto name = r.ReadString();
    if (!name.ok()) {
      fail("section " + std::to_string(i) + ": " + name.status().message());
      break;
    }
    auto size = r.ReadFixed64();
    if (!size.ok()) {
      fail("section " + std::to_string(i) + ": " + size.status().message());
      break;
    }
    auto meta_crc = r.ReadFixed32();
    auto payload_crc = r.ReadFixed32();
    if (!meta_crc.ok() || !payload_crc.ok()) {
      fail("section " + std::to_string(i) + ": truncated section header");
      break;
    }
    if (*meta_crc != FramingCrc(*name, *size)) {
      fail("section " + std::to_string(i) + " (" + *name +
           "): framing checksum mismatch");
      break;
    }
    const uint64_t offset = static_cast<uint64_t>(in.tellg());
    if (offset + *size > reader.bytes_.size()) {
      fail("section " + *name + ": payload extends past end of file");
      break;
    }
    reader.sections_.push_back(
        SectionInfo{std::move(*name), offset, *size, *payload_crc});
    in.seekg(static_cast<std::streamoff>(offset + *size));
  }
  return reader;
}

Result<SnapshotReader> SnapshotReader::OpenFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed: " + path);
  return Parse(std::move(buf).str());
}

bool SnapshotReader::has_section(std::string_view name) const {
  return std::any_of(sections_.begin(), sections_.end(),
                     [&](const SectionInfo& s) { return s.name == name; });
}

Result<std::string> SnapshotReader::ReadSection(std::string_view name) const {
  for (const SectionInfo& s : sections_) {
    if (s.name != name) continue;
    std::string payload = bytes_.substr(s.offset, s.size);
    if (Crc32c(payload) != s.payload_crc) {
      return Status::IoError("section checksum mismatch: " +
                             std::string(name));
    }
    return payload;
  }
  return Status::NotFound("no section named " + std::string(name));
}

// --- SnapshotStore -------------------------------------------------------

SnapshotStore::SnapshotStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

std::string SnapshotStore::SnapshotFileName(uint64_t generation) {
  return StrFormat("snap-%06llu.lks",
                   static_cast<unsigned long long>(generation));
}

std::string SnapshotStore::ManifestPath() const { return dir_ + "/MANIFEST"; }

std::string SnapshotStore::SnapshotPath(uint64_t generation) const {
  return dir_ + "/" + SnapshotFileName(generation);
}

std::vector<uint64_t> SnapshotStore::ReadManifest() const {
  std::ifstream in(ManifestPath());
  if (!in) return {};
  std::string line;
  if (!std::getline(in, line) || line != "LAKE-MANIFEST v1") return {};
  std::vector<uint64_t> generations;
  while (std::getline(in, line)) {
    unsigned long long gen = 0;
    char name[256];
    unsigned long long size = 0;
    if (std::sscanf(line.c_str(), "%llu %255s %llu", &gen, name, &size) != 3) {
      continue;  // tolerate garbled lines; the envelope CRCs are the truth
    }
    generations.push_back(gen);
  }
  std::sort(generations.begin(), generations.end());
  generations.erase(std::unique(generations.begin(), generations.end()),
                    generations.end());
  return generations;
}

std::vector<uint64_t> SnapshotStore::ScanDirectory() const {
  std::vector<uint64_t> generations;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  Status scan_status = Status::OK();
  if (ec) {
    // A store we cannot list is not the same as an empty one: recovery
    // deciding "no snapshot exists" off a permissions error would start a
    // fresh lineage and shadow every committed generation.
    scan_status = Status::IoError("cannot scan snapshot dir " + dir_ + ": " +
                                  ec.message());
    LAKE_LOG(Warning) << scan_status.ToString();
  } else {
    const fs::directory_iterator end;
    while (it != end) {
      const std::string name = it->path().filename().string();
      unsigned long long gen = 0;
      if (std::sscanf(name.c_str(), "snap-%llu.lks", &gen) == 1 &&
          name == SnapshotFileName(gen)) {
        generations.push_back(gen);
      }
      it.increment(ec);
      if (ec) {
        scan_status = Status::IoError("snapshot dir scan failed mid-walk in " +
                                      dir_ + ": " + ec.message());
        LAKE_LOG(Warning) << scan_status.ToString();
        break;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(scan_mu_);
    last_scan_status_ = scan_status;
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

Status SnapshotStore::last_scan_status() const {
  std::lock_guard<std::mutex> lock(scan_mu_);
  return last_scan_status_;
}

std::vector<uint64_t> SnapshotStore::Generations() const {
  std::vector<uint64_t> generations = ReadManifest();
  if (generations.empty()) generations = ScanDirectory();
  return generations;
}

Result<uint64_t> SnapshotStore::Commit(const SnapshotWriter& snapshot) {
  // Next generation follows everything ever seen on disk, so a failed or
  // pruned generation number is never reused.
  uint64_t next = 1;
  for (uint64_t gen : ReadManifest()) next = std::max(next, gen + 1);
  for (uint64_t gen : ScanDirectory()) next = std::max(next, gen + 1);

  const std::string bytes = snapshot.Serialize();
  LAKE_RETURN_IF_ERROR(
      AtomicWriteFile(SnapshotPath(next), bytes, "store.snap"));

  // Commit point: rewrite the MANIFEST listing the retained generations.
  std::vector<uint64_t> retained = ReadManifest();
  retained.push_back(next);
  std::sort(retained.begin(), retained.end());
  retained.erase(std::unique(retained.begin(), retained.end()),
                 retained.end());
  std::vector<uint64_t> pruned;
  while (retained.size() > std::max<size_t>(1, options_.keep_generations)) {
    pruned.push_back(retained.front());
    retained.erase(retained.begin());
  }

  std::string manifest = "LAKE-MANIFEST v1\n";
  for (uint64_t gen : retained) {
    std::error_code ec;
    const uint64_t size = fs::file_size(SnapshotPath(gen), ec);
    manifest += StrFormat("%llu %s %llu\n",
                          static_cast<unsigned long long>(gen),
                          SnapshotFileName(gen).c_str(),
                          static_cast<unsigned long long>(ec ? 0 : size));
  }
  Status committed =
      AtomicWriteFile(ManifestPath(), manifest, "store.manifest");
  if (!committed.ok()) {
    // The new envelope is on disk but never became current; remove it so
    // the store's state matches the (old) MANIFEST.
    std::error_code ec;
    fs::remove(SnapshotPath(next), ec);
    return committed;
  }

  for (uint64_t gen : pruned) {
    std::error_code ec;
    fs::remove(SnapshotPath(gen), ec);  // best effort
  }
  return next;
}

Result<SnapshotStore::Opened> SnapshotStore::OpenLatest() const {
  std::vector<uint64_t> generations = Generations();
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    Result<SnapshotReader> reader = SnapshotReader::OpenFile(SnapshotPath(*it));
    if (reader.ok()) {
      return Opened{*it, std::move(reader).value()};
    }
    LAKE_LOG(Warning) << "snapshot generation " << *it
                      << " unreadable, falling back: "
                      << reader.status().ToString();
  }
  if (generations.empty()) {
    // "Nothing found" via an unscannable directory is an I/O failure, not
    // an empty store — callers must not cold-start over it.
    Status scan = last_scan_status();
    if (!scan.ok()) return scan;
  }
  return Status::NotFound("no committed snapshot in " + dir_);
}

}  // namespace lake::store
