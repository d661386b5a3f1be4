// Versioned, CRC-checksummed binary snapshots of streaming-analysis
// state — the checkpoint half of the checkpoint-recovery pattern the
// tool applies to itself (DESIGN.md "Crash-tolerant streaming").
//
// A snapshot file is written atomically (tmp + fsync + rename) so a
// crash mid-write can never leave a half-written file under the final
// name; a torn or bit-flipped file is rejected by size/CRC validation
// and the loader falls back to the previous generation.  The byte
// layout is documented in docs/FORMATS.md ("snapshot — analyzer
// checkpoint files") and is the contract the version number guards.
//
// Serialization is deliberately exact: doubles round-trip through their
// IEEE-754 bit pattern, so a restored analyzer continues producing
// *bit-identical* metrics to an uninterrupted pass — the property
// bench/crash_campaign asserts cell by cell.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"

namespace ld {

struct AppRun;
struct ErrorRecord;
struct ErrorTuple;
struct TorqueRecord;
struct ParseStats;
struct IngestStats;
struct QuarantineEntry;
struct MetricsReport;
struct ReconstructStats;
struct AnalysisSummary;

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected).  This is the
/// checksum both the snapshot file trailer and the report fingerprints
/// use; Crc32("123456789") == 0xCBF43926.  Passing the CRC of the bytes
/// before `data` as `crc` continues it: Crc32(b, n, Crc32(a, m)) is the
/// CRC of a followed by b, so a streamed payload is checksummed chunk by
/// chunk.
std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t crc = 0);
inline std::uint32_t Crc32(const std::vector<std::uint8_t>& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

class DurableFileWriter;

/// Append-only little-endian byte sink.  All multi-byte integers are
/// written LE regardless of host order; doubles as their bit pattern.
///
/// Appends write inline through a cursor into one chunk of kChunkBytes.
/// A full chunk is flushed to the writer's destination: its own byte
/// vector (bytes(), TakeBytes()) or, for a writer built over a
/// DurableFileWriter, the file, so an encoder streams a payload of any
/// size without holding it whole.  Raw appends of a chunk or more skip
/// the chunk and go to the destination directly.
class SnapshotWriter {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  SnapshotWriter() = default;
  /// Streams into `sink`; call Flush() before committing the file.
  explicit SnapshotWriter(DurableFileWriter& sink) : sink_(&sink) {}
  // The cursor points into the chunk: neither copyable nor movable.
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  void U8(std::uint8_t v) {
    *Room(1) = v;
    ++cur_;
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(std::uint32_t v) { PutLe(v); }
  void U64(std::uint64_t v) { PutLe(v); }
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Time(TimePoint t) { I64(t.unix_seconds()); }
  void Dur(Duration d) { I64(d.seconds()); }
  /// u32 length prefix + raw bytes.
  void Str(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  /// Unprefixed raw bytes (the bulk column dumps of the parsed-bundle
  /// cache); the caller owns length framing.
  void Raw(const void* data, std::size_t size);
  /// LEB128 variable-length unsigned integer: 7 value bits per byte,
  /// high bit = continuation, little-endian groups.  1 byte for values
  /// < 128 — the workhorse of the bundle cache's compacted columns.
  void Varint(std::uint64_t v) {
    std::uint8_t* p = Room(10);
    while (v >= 0x80) {
      *p++ = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    cur_ = p;
  }
  /// Zigzag-mapped signed varint ((v << 1) ^ (v >> 63)), so small
  /// negative deltas stay small on disk.
  void VarintSigned(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    Varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }

  /// Sizes the owned byte vector for `n` more bytes, so a payload of
  /// known size is allocated once instead of regrown.
  void Reserve(std::size_t n) { out_.reserve(out_.size() + n); }
  /// Moves buffered bytes to the destination.  A sink keeps its first
  /// write error for DurableFileWriter::Commit to report.
  void Flush();

  /// Everything written so far (owned writers only).
  const std::vector<std::uint8_t>& bytes() {
    Flush();
    return out_;
  }
  std::vector<std::uint8_t> TakeBytes() {
    Flush();
    return std::move(out_);
  }

 private:
  template <typename T>
  void PutLe(T v) {
    std::uint8_t* p = Room(sizeof(T));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, &v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
    }
    cur_ = p + sizeof(T);
  }
  /// The cursor, with at least `n` (at most kChunkBytes) bytes of room.
  std::uint8_t* Room(std::size_t n) {
    if (static_cast<std::size_t>(end_ - cur_) < n) Spill();
    return cur_;
  }
  /// Flushes a full chunk, allocating it on first use.  The chunk is
  /// never zero-filled: only bytes a caller wrote are ever touched.
  void Spill();
  void Emit(const std::uint8_t* data, std::size_t size);

  std::unique_ptr<std::uint8_t[]> chunk_;
  std::uint8_t* cur_ = nullptr;
  std::uint8_t* end_ = nullptr;
  std::vector<std::uint8_t> out_;
  DurableFileWriter* sink_ = nullptr;
};

/// Sequential reader over a snapshot payload.  Reading past the end (or
/// a length prefix past the end) latches an error status and returns
/// zero values; callers check `status()` once after a batch of reads
/// instead of per-field — the CRC already vouches for the bytes, so a
/// failure here means a layout/version bug, not data corruption.
class SnapshotReader {
 public:
  SnapshotReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit SnapshotReader(const std::vector<std::uint8_t>& bytes)
      : SnapshotReader(bytes.data(), bytes.size()) {}

  std::uint8_t U8();
  bool Bool() { return U8() != 0; }
  std::uint32_t U32();
  std::uint64_t U64();
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64();
  TimePoint Time() { return TimePoint(I64()); }
  Duration Dur() { return Duration(I64()); }
  std::string Str();
  /// Bulk copy of `size` raw bytes into `out`; zero-fills and latches
  /// an error when fewer remain.
  void Raw(void* out, std::size_t size);
  /// LEB128 unsigned varint; latches an error on truncation or on an
  /// encoding longer than 10 bytes (malformed input, not corruption —
  /// the CRC vouches for the bytes).
  std::uint64_t Varint();
  /// Zigzag-decoded signed varint.
  std::int64_t VarintSigned();

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// Bytes not yet consumed; 0 when fully read.
  std::size_t remaining() const { return size_ - pos_; }
  void Fail(std::string why);

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  Status status_;
};

// --- shared struct serializers (used by the analyzer state hooks) ----

void SaveParseStats(SnapshotWriter& w, const ParseStats& s);
void LoadParseStats(SnapshotReader& r, ParseStats& s);
void SaveIngestStats(SnapshotWriter& w, const IngestStats& s);
void LoadIngestStats(SnapshotReader& r, IngestStats& s);
void SaveStatus(SnapshotWriter& w, const Status& s);
Status LoadStatus(SnapshotReader& r);
void SaveReconstructStats(SnapshotWriter& w, const ReconstructStats& s);
void LoadReconstructStats(SnapshotReader& r, ReconstructStats& s);
void SaveTorqueRecord(SnapshotWriter& w, const TorqueRecord& rec);
void LoadTorqueRecord(SnapshotReader& r, TorqueRecord& rec);
void SaveAppRun(SnapshotWriter& w, const AppRun& run);
void LoadAppRun(SnapshotReader& r, AppRun& run);
void SaveErrorRecord(SnapshotWriter& w, const ErrorRecord& rec);
void LoadErrorRecord(SnapshotReader& r, ErrorRecord& rec);
void SaveErrorTuple(SnapshotWriter& w, const ErrorTuple& tuple);
void LoadErrorTuple(SnapshotReader& r, ErrorTuple& tuple);
void SaveQuarantineEntry(SnapshotWriter& w, const QuarantineEntry& e);
void LoadQuarantineEntry(SnapshotReader& r, QuarantineEntry& e);

/// Serializes every field of a report (fractions, CI bounds, ingest
/// counters, all tables and series) into `w` — the basis of the
/// bit-identical equivalence check in bench/crash_campaign.
void SaveMetricsReport(SnapshotWriter& w, const MetricsReport& report);
/// Inverse of SaveMetricsReport: reads the exact field layout back.  A
/// loaded report re-serializes to the same bytes (FingerprintReport
/// equal) — the parsed-bundle cache depends on this round trip.
void LoadMetricsReport(SnapshotReader& r, MetricsReport& report);
/// The one codec for the bundle-wide result every driver produces
/// (report, parse/coalesce/reconstruct/ingest counters, ingest status):
/// the bundle cache's memoized result and the fleet partials use it.
void SaveAnalysisSummary(SnapshotWriter& w, const AnalysisSummary& summary);
void LoadAnalysisSummary(SnapshotReader& r, AnalysisSummary& summary);
/// CRC-32 over the full serialized report: two reports fingerprint
/// equal iff every number in them is bit-identical.
std::uint32_t FingerprintReport(const MetricsReport& report);
/// CRC-32 over the serialized ingest counters.
std::uint32_t FingerprintIngest(const IngestStats& stats);

// --- durable files -------------------------------------------------

/// Every durable LogDiver file (snapshots, fleet partials, tenant
/// snapshots, parsed-bundle-cache entries) is one 32-byte header and a
/// payload:
///   magic[8] | u32 version | u32 payload CRC | u64 payload size |
///   u64 input fingerprint
/// Only the magic and the version differ between kinds.  The magics are
/// distinct, so a file copied to another kind's path fails the very
/// first header check instead of limping into payload decoding.
struct FileFormat {
  std::array<std::uint8_t, 8> magic;
  std::uint32_t version;
};
inline constexpr std::size_t kFileHeaderSize = 32;

/// Snapshot framing, shared by fleet partials and tenant snapshots:
/// "LDSNAP" + 0x1A (stops accidental text-mode readers) + a zero byte.
/// Version 2 added the input fingerprint to the header, making every
/// snapshot a self-describing unit: a loader can reject a file that
/// belongs to a different bundle or bundle partition without parsing
/// the payload.  The analyzer payload carries its own version (see
/// streaming.cpp).
inline constexpr FileFormat kSnapshotFormat = {
    {'L', 'D', 'S', 'N', 'A', 'P', 0x1A, 0x00}, 2};

/// The one writer of durable files: a payload streamed into a
/// pid-qualified tmp file and published under `path` atomically.
///
/// Open creates `<path>.tmp.<pid>`, takes flock(LOCK_EX) on it (held
/// until after the rename, so a sweeper can tell a live writer from an
/// orphan: see ReclaimOrphanedTmpFiles) and writes a placeholder
/// header.  Append writes payload bytes and folds them into a running
/// CRC-32.  Commit writes the real header at offset 0, fsyncs, renames
/// the tmp over `path` and fsyncs the directory, so the rename itself
/// survives power loss.  A crash at any point leaves either the old file
/// or no file under `path`, never a torn one.  A writer destroyed
/// without Commit unlinks its tmp file.
class DurableFileWriter {
 public:
  /// `fingerprint` identifies the input the payload is computed from
  /// (see BundlePartitionFingerprint in resume.hpp); 0 = unspecified.
  static Result<DurableFileWriter> Open(const std::string& path,
                                        const FileFormat& format,
                                        std::uint64_t fingerprint);

  DurableFileWriter(DurableFileWriter&& other) noexcept;
  DurableFileWriter& operator=(DurableFileWriter&& other) noexcept;
  DurableFileWriter(const DurableFileWriter&) = delete;
  DurableFileWriter& operator=(const DurableFileWriter&) = delete;
  ~DurableFileWriter();

  /// Writes payload bytes.  The first failure is kept and reported by
  /// Commit; later appends are dropped.
  void Append(std::span<const std::uint8_t> bytes);
  /// Publishes the file; on any failure nothing is published and the
  /// tmp file is gone.
  Status Commit();

  std::uint64_t payload_size() const { return size_; }

 private:
  DurableFileWriter() = default;
  /// Unlinks the tmp file (still under our lock) and closes it.
  void Abandon();

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  FileFormat format_{};
  std::uint64_t fingerprint_ = 0;
  std::uint32_t crc_ = 0;
  std::uint64_t size_ = 0;
  Status error_;
};

/// A whole payload in one call: Open, Append, Commit.
Status WriteDurableFile(const std::string& path, const FileFormat& format,
                        std::span<const std::uint8_t> payload,
                        std::uint64_t fingerprint);

/// Unlinks every `*<suffix>.tmp.*` file in `dir` whose writer is gone:
/// a DurableFileWriter holds its tmp file's lock until the rename, so a
/// file this call can lock with LOCK_NB belongs to a dead process (or
/// to none).  Returns the number removed.
std::size_t ReclaimOrphanedTmpFiles(const std::string& dir,
                                    std::string_view suffix);

/// The payload and header fingerprint of a file that passed validation.
/// `payload` aliases the validated bytes.
struct ValidatedFile {
  std::span<const std::uint8_t> payload;
  std::uint64_t fingerprint = 0;
};

/// The one header validator: length, magic, version, declared payload
/// size against the actual one (a torn file), payload CRC and, when
/// `expected_fingerprint` is non-zero, the input fingerprint.  Any
/// mismatch is a ParseError naming `path`: such a file must never be
/// trusted.
Result<ValidatedFile> ValidateDurableFile(std::span<const std::uint8_t> file,
                                          const FileFormat& format,
                                          std::uint64_t expected_fingerprint,
                                          const std::string& path);

/// WriteDurableFile in the snapshot format.
Status WriteSnapshotFile(const std::string& path,
                         const std::vector<std::uint8_t>& payload,
                         std::uint64_t fingerprint = 0);

/// Reads a snapshot-format file and returns its payload once
/// ValidateDurableFile accepts it; a non-zero `expected_fingerprint`
/// also rejects a file stamped with another input.  The header
/// fingerprint is returned through `fingerprint` when non-null.
Result<std::vector<std::uint8_t>> ReadSnapshotFile(
    const std::string& path, std::uint64_t* fingerprint = nullptr,
    std::uint64_t expected_fingerprint = 0);

/// Generation-managed snapshot directory: snapshot-000001.ldsnap,
/// snapshot-000002.ldsnap, ...  Writes always create the next
/// generation; loads walk newest-first past invalid files so a torn
/// final snapshot degrades to the previous one instead of failing.
class SnapshotStore {
 public:
  /// `keep_generations` older snapshots are retained after each write
  /// (min 2, so the newest generation always has a fallback).
  explicit SnapshotStore(std::string dir, std::size_t keep_generations = 2);

  /// Creates the directory if needed and writes the next generation,
  /// stamping `fingerprint` into the file header (0 = unspecified).
  Result<std::uint64_t> Write(const std::vector<std::uint8_t>& payload,
                              std::uint64_t fingerprint = 0);

  struct Loaded {
    std::vector<std::uint8_t> payload;
    std::uint64_t generation = 0;
    /// Header fingerprint of the loaded snapshot.
    std::uint64_t fingerprint = 0;
    /// Newer generations that failed validation and were skipped.
    std::uint64_t rejected = 0;
  };
  /// Newest valid snapshot; NotFound when the directory holds none.
  /// A non-zero `expected_fingerprint` additionally rejects snapshots
  /// whose header fingerprint differs — a checkpoint of a *different*
  /// bundle (the directory was reused, or a partial from another shard
  /// partition landed here) is as unusable as a torn one, and falls
  /// back the same way.  Every rejected generation, torn or
  /// mismatched, bumps `ld.snapshot.rejected_total`.
  Result<Loaded> LoadLatest(std::uint64_t expected_fingerprint = 0) const;

  /// Existing generation numbers, ascending.
  std::vector<std::uint64_t> Generations() const;
  /// Deletes every snapshot (fresh-start semantics for --no-resume).
  Status Clear() const;

  const std::string& dir() const { return dir_; }
  std::string PathFor(std::uint64_t generation) const;

 private:
  std::string dir_;
  std::size_t keep_generations_;
};

}  // namespace ld
