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

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/intern.hpp"
#include "common/status.hpp"
#include "common/time.hpp"

namespace ld {

struct AppRun;
struct ErrorRecord;
struct ErrorTuple;
struct TorqueRecord;
struct ParseStats;
struct IngestStats;
struct CoalesceStats;
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

/// The count width that codes a count as a LEB128 varint (Varint below)
/// instead of a u32 or u64.
struct VarintCount {};

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
  /// The codec direction (see "codecs" below).
  static constexpr bool kReading = false;

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

  /// Writes each value through its codec (see "codecs" below).
  template <class... T>
  void operator()(const T&... values);
  /// Writes a container's element count as a CountT (u32, u64 or
  /// VarintCount); only a reader uses `encode_default`.
  template <class CountT, class EncodeDefault>
  std::size_t Count(std::size_t n, const EncodeDefault& /*encode_default*/) {
    if constexpr (std::is_same_v<CountT, VarintCount>) {
      Varint(n);
    } else if constexpr (sizeof(CountT) == 4) {
      U32(static_cast<std::uint32_t>(n));
    } else {
      U64(n);
    }
    return n;
  }
  /// Writes a layout version word.
  void Version(std::uint32_t version, std::string_view /*what*/) {
    U32(version);
  }
  bool ok() const { return true; }

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

/// The fewest bytes an element can take: what `encode_default` writes
/// for a default-constructed one (empty strings and lists, absent
/// optionals), measured once per element codec.
template <class EncodeDefault>
std::size_t MinBytes(const EncodeDefault& encode_default) {
  static const std::size_t bytes = [&encode_default] {
    SnapshotWriter w;
    encode_default(w);
    return w.bytes().size();
  }();
  return bytes;
}

/// Sequential reader over a snapshot payload.  Reading past the end (or
/// a length prefix past the end) latches an error status and returns
/// zero values; callers check `status()` once after a batch of reads
/// instead of per-field.  A failed reader reads nothing more: every
/// later read returns a zero value.
class SnapshotReader {
 public:
  /// The codec direction (see "codecs" below).
  static constexpr bool kReading = true;

  SnapshotReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit SnapshotReader(std::span<const std::uint8_t> bytes)
      : SnapshotReader(bytes.data(), bytes.size()) {}
  explicit SnapshotReader(const std::vector<std::uint8_t>& bytes)
      : SnapshotReader(bytes.data(), bytes.size()) {}

  /// Reads each value back through its codec (see "codecs" below).
  template <class... T>
  void operator()(T&&... values);
  /// Reads a CountT (u32, u64 or VarintCount) element count and refuses,
  /// before the caller sizes anything by it, a count the rest of the
  /// payload cannot hold: each element takes at least
  /// MinBytes(encode_default).  A refused count reads as 0.
  template <class CountT, class EncodeDefault>
  std::size_t Count(std::size_t /*n*/, const EncodeDefault& encode_default) {
    std::uint64_t n = 0;
    if constexpr (std::is_same_v<CountT, VarintCount>) {
      n = Varint();
    } else {
      n = sizeof(CountT) == 4 ? U32() : U64();
    }
    if (n > remaining() / std::max<std::size_t>(MinBytes(encode_default), 1)) {
      Fail("count " + std::to_string(n) + " exceeds the payload");
      return 0;
    }
    return static_cast<std::size_t>(n);
  }
  /// Reads a layout version word; any other value than `version` fails
  /// the reader with FailedPrecondition "<what> version N, this build
  /// speaks M".
  void Version(std::uint32_t version, std::string_view what);
  /// The status of a whole-payload decode: the latched error, or a
  /// ParseError when bytes remain past the layout.
  Status Finish() const;

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
  // The same reads into a value, so one codec runs in both directions.
  void U8(std::uint8_t& v) { v = U8(); }
  void Bool(bool& v) { v = Bool(); }
  void U32(std::uint32_t& v) { v = U32(); }
  void U64(std::uint64_t& v) { v = U64(); }
  void I32(std::int32_t& v) { v = I32(); }
  void I64(std::int64_t& v) { v = I64(); }
  void F64(double& v) { v = F64(); }
  void Time(TimePoint& v) { v = Time(); }
  void Dur(Duration& v) { v = Dur(); }
  void Str(std::string& v) { v = Str(); }
  /// Bulk copy of `size` raw bytes into `out`; zero-fills and latches
  /// an error when fewer remain.
  void Raw(void* out, std::size_t size);
  /// LEB128 unsigned varint; latches an error on truncation or on an
  /// encoding longer than 10 bytes (malformed input, not corruption —
  /// the CRC vouches for the bytes).
  std::uint64_t Varint();
  /// Zigzag-decoded signed varint.
  std::int64_t VarintSigned();
  void Varint(std::uint64_t& v) { v = Varint(); }
  void VarintSigned(std::int64_t& v) { v = VarintSigned(); }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// Bytes not yet consumed; 0 when fully read.
  std::size_t remaining() const { return size_ - pos_; }
  /// Latches a ParseError "snapshot payload: <why>" (a malformed
  /// payload), or `why` itself; the first failure wins.
  void Fail(std::string why);
  void Fail(Status why);

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  Status status_;
};

// --- codecs ----------------------------------------------------------
//
// Each serialized type states its field order once, in one `Fields`
// function that runs in either direction: given a SnapshotWriter it
// appends the fields, given a SnapshotReader it reads them back into
// the same places.  `io(a, b, c)` passes each value through its codec:
//   * bool, u8 → U8; u32/i32 → U32; u64/i64 → U64; double → F64 (bit
//     pattern); TimePoint, Duration → I64 seconds; std::string → Str;
//     an enum → U8;
//   * Symbol → its string, re-interned on read;
//   * Status → U8 code + Str message (an OK code reads back as Ok());
//   * std::optional<T> → Bool presence, then the value when present;
//   * std::array<T, N> and T[N] → the N elements, no count;
//   * a type with a member `template <class Io> void Fields(Io&)`
//     (classes with private state), else the free `Fields(io, value)`.
// Counted containers go through Seq / MapSeq and so through Count,
// which refuses a count the payload cannot hold before anything is
// sized by it.  A writer passes a const value through the same
// non-const codec: a codec run by a writer only reads.

template <class Io, class T>
void Field(Io& io, T& value);

template <class... T>
void SnapshotWriter::operator()(const T&... values) {
  (Field(*this, values), ...);
}

template <class... T>
void SnapshotReader::operator()(T&&... values) {
  (Field(*this, values), ...);
}

namespace codec {
template <class T>
inline constexpr bool kOptional = false;
template <class T>
inline constexpr bool kOptional<std::optional<T>> = true;
template <class T>
inline constexpr bool kArray = std::is_array_v<T>;
template <class T, std::size_t N>
inline constexpr bool kArray<std::array<T, N>> = true;
}  // namespace codec

template <class Io, class T>
void Field(Io& io, T& value) {
  using V = std::remove_const_t<T>;
  V& v = const_cast<V&>(value);
  if constexpr (std::is_same_v<V, bool>) {
    io.Bool(v);
  } else if constexpr (std::is_same_v<V, std::uint8_t>) {
    io.U8(v);
  } else if constexpr (std::is_same_v<V, std::uint32_t>) {
    io.U32(v);
  } else if constexpr (std::is_same_v<V, std::int32_t>) {
    io.I32(v);
  } else if constexpr (std::is_same_v<V, std::uint64_t>) {
    io.U64(v);
  } else if constexpr (std::is_same_v<V, std::int64_t>) {
    io.I64(v);
  } else if constexpr (std::is_same_v<V, double>) {
    io.F64(v);
  } else if constexpr (std::is_same_v<V, TimePoint>) {
    io.Time(v);
  } else if constexpr (std::is_same_v<V, Duration>) {
    io.Dur(v);
  } else if constexpr (std::is_same_v<V, std::string>) {
    io.Str(v);
  } else if constexpr (std::is_enum_v<V>) {
    auto byte = static_cast<std::uint8_t>(v);
    io.U8(byte);
    if constexpr (Io::kReading) v = static_cast<V>(byte);
  } else if constexpr (std::is_same_v<V, Symbol>) {
    if constexpr (Io::kReading) {
      v = Intern(io.Str());
    } else {
      io.Str(v.view());
    }
  } else if constexpr (std::is_same_v<V, Status>) {
    StatusCode code = v.code();
    std::string message = v.message();
    io(code, message);
    if constexpr (Io::kReading) {
      v = code == StatusCode::kOk ? Status::Ok()
                                  : Status(code, std::move(message));
    }
  } else if constexpr (codec::kOptional<V>) {
    bool present = v.has_value();
    io.Bool(present);
    if constexpr (Io::kReading) {
      v.reset();
      if (present) v.emplace();
    }
    if (present) Field(io, *v);
  } else if constexpr (codec::kArray<V>) {
    for (auto& element : v) Field(io, element);
  } else if constexpr (requires { v.Fields(io); }) {
    v.Fields(io);
  } else if constexpr (requires { Fields(io, v); }) {
    Fields(io, v);
  } else {
    static_assert(sizeof(V) == 0, "no codec for this type");
  }
}

/// A counted sequence (vector or deque): a CountT count, then each
/// element through `each(io, element)`.
template <class CountT, class Io, class Items, class Each>
void Seq(Io& io, Items& items, const Each& each) {
  const std::size_t n = io.template Count<CountT>(
      items.size(), [&each](SnapshotWriter& w) {
        typename Items::value_type item{};
        each(w, item);
      });
  if constexpr (Io::kReading) {
    items.clear();
    items.resize(n);
  }
  for (auto& item : items) {
    if (!io.ok()) break;
    each(io, item);
  }
}

template <class CountT, class Io, class Items>
void Seq(Io& io, Items& items) {
  Seq<CountT>(io, items, [](auto& inner, auto& item) { inner(item); });
}

/// A counted map in its iteration order: a CountT count, then each
/// entry through `each(io, key, value)`.
template <class CountT, class Io, class Map, class Each>
void MapSeq(Io& io, Map& map, const Each& each) {
  using Key = typename Map::key_type;
  using Value = typename Map::mapped_type;
  const std::size_t n =
      io.template Count<CountT>(map.size(), [&each](SnapshotWriter& w) {
        Key key{};
        Value value{};
        each(w, key, value);
      });
  if constexpr (Io::kReading) {
    map.clear();
    for (std::size_t i = 0; i < n && io.ok(); ++i) {
      Key key{};
      Value value{};
      each(io, key, value);
      map.emplace(std::move(key), std::move(value));
    }
  } else {
    for (auto& [key, value] : map) each(io, key, value);
  }
}

// The shared struct codecs (snapshot.cpp), each instantiated for both
// directions.
template <class Io>
void Fields(Io& io, ParseStats& s);
template <class Io>
void Fields(Io& io, IngestStats& s);
template <class Io>
void Fields(Io& io, CoalesceStats& s);
template <class Io>
void Fields(Io& io, ReconstructStats& s);
template <class Io>
void Fields(Io& io, TorqueRecord& rec);
template <class Io>
void Fields(Io& io, AppRun& run);
template <class Io>
void Fields(Io& io, ErrorRecord& rec);
template <class Io>
void Fields(Io& io, ErrorTuple& tuple);
template <class Io>
void Fields(Io& io, QuarantineEntry& e);
/// Every field of a report (fractions, CI bounds, ingest counters, all
/// tables and series) — the basis of the bit-identical equivalence
/// check in bench/crash_campaign.  A decoded report re-encodes to the
/// same bytes (FingerprintReport equal); the bundle cache depends on it.
template <class Io>
void Fields(Io& io, MetricsReport& report);
/// The bundle-wide result every driver produces (report,
/// parse/coalesce/reconstruct/ingest counters, ingest status): the
/// bundle cache's memoized result and the fleet partials hold it.
template <class Io>
void Fields(Io& io, AnalysisSummary& summary);

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
    std::uint64_t generation = 0;
    /// Header fingerprint of the loaded snapshot.
    std::uint64_t fingerprint = 0;
    /// Newer generations that failed validation and were skipped.
    std::uint64_t rejected = 0;
  };
  /// Decodes the newest valid snapshot; NotFound when the directory
  /// holds none.  A non-zero `expected_fingerprint` additionally rejects
  /// snapshots whose header fingerprint differs — a checkpoint of a
  /// *different* bundle (the directory was reused, or a partial from
  /// another shard partition landed here) is as unusable as a torn one,
  /// and falls back the same way.  `decode` runs on each candidate
  /// payload, newest first, and keeps what it needs: a ParseError from
  /// it (a payload that does not decode, such as a count past its end)
  /// rejects the generation the same way too, while any other error (a
  /// layout version or machine geometry this build does not speak) is
  /// returned.  Every rejected generation bumps
  /// `ld.snapshot.rejected_total`.
  Result<Loaded> LoadLatest(
      std::uint64_t expected_fingerprint,
      const std::function<Status(std::span<const std::uint8_t>)>& decode)
      const;

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
