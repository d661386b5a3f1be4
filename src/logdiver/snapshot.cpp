#include "logdiver/snapshot.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/obs/obs.hpp"
#include "logdiver/coalesce.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/metrics.hpp"
#include "logdiver/quarantine.hpp"
#include "logdiver/reconstruct.hpp"
#include "logdiver/records.hpp"

namespace ld {
namespace {

namespace fs = std::filesystem;

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".ldsnap";

// Slice-by-8 CRC tables: table[0] is the classic bytewise table, and
// table[j][b] is the CRC of byte b followed by j zero bytes, so eight
// bytes fold in one step.  Validating a multi-megabyte snapshot or
// parsed-bundle-cache payload is on the cache's warm hit path, where
// the bytewise loop was the single largest cost.
const std::array<std::array<std::uint32_t, 256>, 8>& Crc32Tables() {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t j = 1; j < 8; ++j) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[j][i] = c;
      }
    }
    return t;
  }();
  return tables;
}

void PutU32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void PutU64(std::uint8_t* out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v));
  PutU32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t GetU32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

std::uint64_t GetU64(const std::uint8_t* in) {
  return static_cast<std::uint64_t>(GetU32(in)) |
         static_cast<std::uint64_t>(GetU32(in + 4)) << 32;
}

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
bool WriteAll(int fd, std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes = bytes.subspan(static_cast<std::size_t>(n));
  }
  return true;
}

/// Prefixes a failed status's message with the file kind ("snapshot: ").
Status InContext(const char* what, const Status& status) {
  if (status.ok()) return status;
  return Status(status.code(), std::string(what) + status.message());
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t crc) {
  const auto& t = Crc32Tables();
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  // The 8-at-a-time fold reads the words little-endian; on a big-endian
  // host the bytewise tail below handles everything.
  if constexpr (std::endian::native == std::endian::little) {
    while (size >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, bytes, 4);
      std::memcpy(&hi, bytes + 4, 4);
      lo ^= crc;
      crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
      bytes += 8;
      size -= 8;
    }
  }
  for (std::size_t i = 0; i < size; ++i) {
    crc = t[0][(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void SnapshotWriter::Emit(const std::uint8_t* data, std::size_t size) {
  if (sink_ != nullptr) {
    sink_->Append({data, size});
  } else {
    out_.insert(out_.end(), data, data + size);
  }
}

void SnapshotWriter::Flush() {
  if (cur_ == chunk_.get()) return;
  Emit(chunk_.get(), static_cast<std::size_t>(cur_ - chunk_.get()));
  cur_ = chunk_.get();
}

void SnapshotWriter::Spill() {
  if (chunk_ == nullptr) {
    chunk_ = std::make_unique_for_overwrite<std::uint8_t[]>(kChunkBytes);
    cur_ = chunk_.get();
    end_ = cur_ + kChunkBytes;
    return;
  }
  Flush();
}

void SnapshotWriter::Raw(const void* data, std::size_t size) {
  if (size == 0) return;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  if (size < kChunkBytes) {
    std::memcpy(Room(size), bytes, size);
    cur_ += size;
    return;
  }
  Flush();
  Emit(bytes, size);
}

void SnapshotReader::Fail(std::string why) {
  Fail(ParseError("snapshot payload: " + std::move(why)));
}

void SnapshotReader::Fail(Status why) {
  if (status_.ok()) status_ = std::move(why);
  pos_ = size_;
}

std::uint8_t SnapshotReader::U8() {
  if (pos_ + 1 > size_) {
    Fail("truncated u8 at offset " + std::to_string(pos_));
    return 0;
  }
  return data_[pos_++];
}

std::uint32_t SnapshotReader::U32() {
  if (pos_ + 4 > size_) {
    Fail("truncated u32 at offset " + std::to_string(pos_));
    pos_ = size_;
    return 0;
  }
  const std::uint32_t v = GetU32(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t SnapshotReader::U64() {
  const std::uint64_t lo = U32();
  const std::uint64_t hi = U32();
  return lo | hi << 32;
}

double SnapshotReader::F64() {
  const std::uint64_t bits = U64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void SnapshotReader::Raw(void* out, std::size_t size) {
  if (pos_ + size > size_ || pos_ + size < pos_) {
    Fail("truncated raw block of " + std::to_string(size) + " bytes");
    pos_ = size_;
    std::memset(out, 0, size);
    return;
  }
  // An empty column passes a null `out`; memcpy must not see it.
  if (size != 0) std::memcpy(out, data_ + pos_, size);
  pos_ += size;
}

std::uint64_t SnapshotReader::Varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= size_) {
      Fail("truncated varint at offset " + std::to_string(pos_));
      return 0;
    }
    const std::uint8_t byte = data_[pos_++];
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th group carries only bit 63: anything above is an
      // over-long encoding, not a value.
      if (shift == 63 && byte > 1) break;
      return v;
    }
  }
  Fail("malformed varint at offset " + std::to_string(pos_));
  return 0;
}

std::int64_t SnapshotReader::VarintSigned() {
  const std::uint64_t u = Varint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

std::string SnapshotReader::Str() {
  const std::uint32_t len = U32();
  if (pos_ + len > size_) {
    Fail("truncated string of length " + std::to_string(len));
    pos_ = size_;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

void SnapshotReader::Version(std::uint32_t version, std::string_view what) {
  const std::uint32_t found = U32();
  if (ok() && found != version) {
    Fail(FailedPreconditionError(std::string(what) + " version " +
                                 std::to_string(found) +
                                 ", this build speaks " +
                                 std::to_string(version)));
  }
}

Status SnapshotReader::Finish() const {
  if (ok() && remaining() != 0) {
    return ParseError("snapshot payload has " + std::to_string(remaining()) +
                      " trailing bytes — layout mismatch");
  }
  return status_;
}

// --- shared struct codecs ----------------------------------------------

template <class Io>
void Fields(Io& io, ParseStats& s) {
  io(s.lines, s.records, s.skipped, s.malformed);
}

template <class Io>
void Fields(Io& io, IngestStats& s) {
  io(s.quarantined, s.quarantine_overflow, s.duplicate_placements,
     s.duplicate_terminations, s.duplicate_job_records,
     s.watermark_regressions, s.evicted_pending_runs, s.evicted_tuples,
     s.budget_exhausted_sources, s.lines_dropped_after_budget);
}

template <class Io>
void Fields(Io& io, CoalesceStats& s) {
  io(s.input_events, s.tuples, s.unresolved_locations);
}

template <class Io>
void Fields(Io& io, ReconstructStats& s) {
  io(s.placements, s.terminations, s.runs, s.missing_termination,
     s.orphan_terminations, s.missing_job, s.mixed_node_types,
     s.duplicate_placements, s.duplicate_terminations,
     s.duplicate_job_records);
}

template <class Io>
void Fields(Io& io, AnalysisSummary& summary) {
  io(summary.metrics, summary.torque_stats, summary.alps_stats,
     summary.syslog_stats, summary.hwerr_stats, summary.coalesce_stats,
     summary.reconstruct_stats, summary.ingest, summary.ingest_status);
}

template <class Io>
void Fields(Io& io, TorqueRecord& rec) {
  io(rec.kind, rec.time, rec.jobid, rec.user, rec.queue, rec.submit,
     rec.start, rec.end, rec.exit_status, rec.nodect, rec.walltime_limit,
     rec.walltime_used);
}

template <class Io>
void Fields(Io& io, AppRun& run) {
  io(run.apid, run.jobid, run.user, run.queue, run.node_type);
  Seq<std::uint32_t>(io, run.nodes);
  io(run.nodect, run.start, run.end, run.has_termination, run.exit_code,
     run.exit_signal, run.killed_node_failure, run.failed_nid,
     run.job_submit, run.job_start, run.walltime_limit, run.job_exit_status);
}

template <class Io>
void Fields(Io& io, ErrorRecord& rec) {
  io(rec.time, rec.category, rec.severity, rec.scope, rec.location,
     rec.source, rec.recovered);
}

template <class Io>
void Fields(Io& io, ErrorTuple& tuple) {
  io(tuple.id, tuple.category, tuple.severity, tuple.scope, tuple.location);
  const std::size_t nodes = io.template Count<std::uint32_t>(
      tuple.nodes.size(), [](SnapshotWriter& w) { w(NodeIndex{}); });
  if constexpr (Io::kReading) {
    tuple.nodes.clear();
    if (nodes > NodeSet::kCapacity) {
      io.Fail("tuple node count exceeds " +
              std::to_string(NodeSet::kCapacity));
    } else {
      tuple.nodes.resize(nodes);
    }
  }
  for (NodeIndex& node : tuple.nodes) io(node);
  io(tuple.first, tuple.last, tuple.recovered, tuple.count,
     tuple.from_syslog, tuple.from_hwerr);
}

template <class Io>
void Fields(Io& io, QuarantineEntry& e) {
  io(e.source, e.line_number, e.reason, e.line);
}

template <class Io>
void Fields(Io& io, MetricsReport& report) {
  io(report.total_runs, report.total_node_hours,
     report.system_failure_fraction, report.lost_node_hours_fraction,
     report.overall_mtti_hours);
  Seq<std::uint32_t>(io, report.outcomes, [](auto& in, OutcomeRow& row) {
    in(row.outcome, row.runs, row.runs_share, row.node_hours,
       row.node_hours_share);
  });
  Seq<std::uint32_t>(io, report.categories, [](auto& in, CategoryRow& row) {
    in(row.category, row.tuples, row.fatal_tuples, row.raw_events,
       row.fatal_mtbe_hours);
  });
  io(report.availability.incidents, report.availability.downtime_hours,
     report.availability.availability);
  Seq<std::uint32_t>(io, report.attribution,
                     [](auto& in, AttributionRow& row) {
                       in(row.cause, row.xe_failures, row.xk_failures);
                     });
  for (auto* scale : {&report.xe_scale, &report.xk_scale}) {
    Seq<std::uint32_t>(io, *scale, [](auto& in, ScalePoint& p) {
      in(p.lo, p.hi, p.runs, p.system_failures, p.failure_probability.point,
         p.failure_probability.lo, p.failure_probability.hi);
    });
  }
  Seq<std::uint32_t>(io, report.monthly, [](auto& in, MonthlyPoint& p) {
    in(p.year, p.month, p.runs, p.system_failures, p.node_hours,
       p.lost_node_hours, p.mtti_hours);
  });
  Seq<std::uint32_t>(io, report.detection_gap,
                     [](auto& in, DetectionGapRow& row) {
                       in(row.type, row.system_failures, row.attributed,
                          row.unattributed, row.unattributed_share);
                     });
  Seq<std::uint32_t>(io, report.queue_waits, [](auto& in, QueueWaitRow& row) {
    in(row.lo, row.hi, row.jobs, row.mean_wait_hours, row.p95_wait_hours);
  });
  io(report.job_impact.jobs, report.job_impact.jobs_with_system_failure,
     report.job_impact.fraction, report.ingest);
}

#define LD_FIELDS_BOTH_WAYS(T)                 \
  template void Fields(SnapshotWriter&, T&); \
  template void Fields(SnapshotReader&, T&)
LD_FIELDS_BOTH_WAYS(ParseStats);
LD_FIELDS_BOTH_WAYS(IngestStats);
LD_FIELDS_BOTH_WAYS(CoalesceStats);
LD_FIELDS_BOTH_WAYS(ReconstructStats);
LD_FIELDS_BOTH_WAYS(AnalysisSummary);
LD_FIELDS_BOTH_WAYS(TorqueRecord);
LD_FIELDS_BOTH_WAYS(AppRun);
LD_FIELDS_BOTH_WAYS(ErrorRecord);
LD_FIELDS_BOTH_WAYS(ErrorTuple);
LD_FIELDS_BOTH_WAYS(QuarantineEntry);
LD_FIELDS_BOTH_WAYS(MetricsReport);
#undef LD_FIELDS_BOTH_WAYS

std::uint32_t FingerprintReport(const MetricsReport& report) {
  SnapshotWriter w;
  w(report);
  return Crc32(w.bytes());
}

std::uint32_t FingerprintIngest(const IngestStats& stats) {
  SnapshotWriter w;
  w(stats);
  return Crc32(w.bytes());
}

// --- durable files -------------------------------------------------

Result<DurableFileWriter> DurableFileWriter::Open(const std::string& path,
                                                  const FileFormat& format,
                                                  std::uint64_t fingerprint) {
  DurableFileWriter w;
  w.path_ = path;
  // The tmp name is pid-qualified: two processes sharing a directory
  // (the daemon's per-tenant layout, concurrent cache writers, a test
  // racing two writers) must never interleave writes into one tmp file.
  // With a shared name, one writer's rename could publish a file the
  // other was still appending to: a torn file under the *final* name
  // that atomicity exists to prevent.  Racing writers of one path end
  // benignly: the last rename wins and both candidates are complete.
  w.tmp_ = path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  w.format_ = format;
  w.fingerprint_ = fingerprint;
  // A sweeper may unlink the tmp file between our open and our lock
  // (unlocked, it looks orphaned), and a writer of the same path in
  // this process may publish it while we wait for the lock.  Either way
  // the name no longer leads to the inode we locked: open it afresh.
  for (int attempt = 0;; ++attempt) {
    const int fd = ::open(w.tmp_.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
      return InternalError("cannot create " + w.tmp_ + ": " +
                           std::strerror(errno));
    }
    int locked = 0;
    do {
      locked = ::flock(fd, LOCK_EX);
    } while (locked != 0 && errno == EINTR);
    struct stat held {};
    struct stat named {};
    if (locked == 0 && ::fstat(fd, &held) == 0 &&
        ::stat(w.tmp_.c_str(), &named) == 0 && held.st_dev == named.st_dev &&
        held.st_ino == named.st_ino) {
      w.fd_ = fd;
      break;
    }
    const std::string why = std::strerror(errno);
    ::close(fd);
    if (locked != 0 || attempt == 8) {
      return InternalError("cannot lock " + w.tmp_ + ": " + why);
    }
  }
  // The header goes in last, over this placeholder: its CRC and size
  // are known only once the payload has streamed through Append.
  const std::array<std::uint8_t, kFileHeaderSize> placeholder{};
  if (::ftruncate(w.fd_, 0) != 0 || !WriteAll(w.fd_, placeholder)) {
    const std::string why = std::strerror(errno);
    w.Abandon();
    return InternalError("write to " + w.tmp_ + " failed: " + why);
  }
  return w;
}

DurableFileWriter::DurableFileWriter(DurableFileWriter&& other) noexcept
    : path_(std::move(other.path_)),
      tmp_(std::move(other.tmp_)),
      fd_(std::exchange(other.fd_, -1)),
      format_(other.format_),
      fingerprint_(other.fingerprint_),
      crc_(other.crc_),
      size_(other.size_),
      error_(std::move(other.error_)) {}

DurableFileWriter& DurableFileWriter::operator=(
    DurableFileWriter&& other) noexcept {
  if (this != &other) {
    Abandon();
    path_ = std::move(other.path_);
    tmp_ = std::move(other.tmp_);
    fd_ = std::exchange(other.fd_, -1);
    format_ = other.format_;
    fingerprint_ = other.fingerprint_;
    crc_ = other.crc_;
    size_ = other.size_;
    error_ = std::move(other.error_);
  }
  return *this;
}

DurableFileWriter::~DurableFileWriter() { Abandon(); }

void DurableFileWriter::Abandon() {
  if (fd_ < 0) return;
  ::unlink(tmp_.c_str());
  ::close(fd_);
  fd_ = -1;
}

void DurableFileWriter::Append(std::span<const std::uint8_t> bytes) {
  if (!error_.ok()) return;
  if (fd_ < 0) {
    error_ = FailedPreconditionError("append to a closed " + path_);
    return;
  }
  crc_ = Crc32(bytes.data(), bytes.size(), crc_);
  size_ += bytes.size();
  if (!WriteAll(fd_, bytes)) {
    error_ = InternalError("write to " + tmp_ + " failed: " +
                           std::strerror(errno));
  }
}

Status DurableFileWriter::Commit() {
  if (fd_ < 0) return FailedPreconditionError("commit of a closed " + path_);
  std::array<std::uint8_t, kFileHeaderSize> header{};
  std::copy(format_.magic.begin(), format_.magic.end(), header.begin());
  PutU32(header.data() + 8, format_.version);
  PutU32(header.data() + 12, crc_);
  PutU64(header.data() + 16, size_);
  PutU64(header.data() + 24, fingerprint_);
  if (error_.ok() &&
      ::pwrite(fd_, header.data(), header.size(), 0) !=
          static_cast<ssize_t>(header.size())) {
    error_ = InternalError("write to " + tmp_ + " failed: " +
                           std::strerror(errno));
  }
  // fsync before rename: the rename must never become durable ahead of
  // the data it points at.
  if (error_.ok() && ::fsync(fd_) != 0) {
    error_ = InternalError("fsync " + tmp_ + " failed: " +
                           std::strerror(errno));
  }
  if (error_.ok() && ::rename(tmp_.c_str(), path_.c_str()) != 0) {
    error_ = InternalError("rename to " + path_ + " failed: " +
                           std::strerror(errno));
  }
  if (!error_.ok()) {
    Abandon();
    return error_;
  }
  // Closing drops the lock; the data is already on disk, so a close
  // error here cannot lose it.
  ::close(fd_);
  fd_ = -1;
  // The rename lives in the parent directory: until that directory is
  // on disk, a power loss can drop the file just published.
  std::string dir = fs::path(path_).parent_path().string();
  if (dir.empty()) dir = ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    return InternalError("cannot open directory " + dir + ": " +
                         std::strerror(errno));
  }
  const int synced = ::fsync(dfd);
  const int sync_errno = errno;
  ::close(dfd);
  // EINVAL: the filesystem cannot sync a directory; nothing more to do.
  if (synced != 0 && sync_errno != EINVAL) {
    return InternalError("fsync of directory " + dir + " failed: " +
                         std::strerror(sync_errno));
  }
  return Status::Ok();
}

Status WriteDurableFile(const std::string& path, const FileFormat& format,
                        std::span<const std::uint8_t> payload,
                        std::uint64_t fingerprint) {
  LD_ASSIGN_OR_RETURN(DurableFileWriter file,
                      DurableFileWriter::Open(path, format, fingerprint));
  file.Append(payload);
  return file.Commit();
}

std::size_t ReclaimOrphanedTmpFiles(const std::string& dir,
                                    std::string_view suffix) {
  const std::string marker = std::string(suffix) + ".tmp.";
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(dir, ec)) {
    const std::string path = item.path().string();
    if (item.path().filename().string().find(marker) == std::string::npos) {
      continue;
    }
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NOFOLLOW);
    if (fd < 0) continue;
    // Unlinked while we hold the lock: a writer that opened this inode
    // before the unlink finds, once it gets the lock, that the name no
    // longer leads to it, and starts over on a fresh file.
    if (::flock(fd, LOCK_EX | LOCK_NB) == 0 && ::unlink(path.c_str()) == 0) {
      ++removed;
    }
    ::close(fd);
  }
  return removed;
}

Result<ValidatedFile> ValidateDurableFile(std::span<const std::uint8_t> file,
                                          const FileFormat& format,
                                          std::uint64_t expected_fingerprint,
                                          const std::string& path) {
  if (file.size() < kFileHeaderSize) {
    return ParseError(path + " shorter than the header");
  }
  if (!std::equal(format.magic.begin(), format.magic.end(), file.data())) {
    return ParseError(path + " has a bad magic number");
  }
  const std::uint32_t version = GetU32(file.data() + 8);
  if (version != format.version) {
    return ParseError(path + " has format version " + std::to_string(version) +
                      ", this build speaks " + std::to_string(format.version));
  }
  ValidatedFile out;
  out.payload = file.subspan(kFileHeaderSize);
  const std::uint64_t declared = GetU64(file.data() + 16);
  if (declared != out.payload.size()) {
    return ParseError(path + " is torn (declares " + std::to_string(declared) +
                      " payload bytes, has " +
                      std::to_string(out.payload.size()) + ")");
  }
  if (Crc32(out.payload.data(), out.payload.size()) !=
      GetU32(file.data() + 12)) {
    return ParseError(path + " fails its CRC check");
  }
  out.fingerprint = GetU64(file.data() + 24);
  if (expected_fingerprint != 0 && out.fingerprint != expected_fingerprint) {
    return ParseError(path + " fingerprints a different input (fingerprint " +
                      std::to_string(out.fingerprint) + ", expected " +
                      std::to_string(expected_fingerprint) + ")");
  }
  return out;
}

Status WriteSnapshotFile(const std::string& path,
                         const std::vector<std::uint8_t>& payload,
                         std::uint64_t fingerprint) {
  LD_OBS_SPAN("snapshot/write");
  const std::uint64_t write_start_ns = obs::NowNanos();
  LD_TRY(InContext("snapshot: ", WriteDurableFile(path, kSnapshotFormat,
                                                  payload, fingerprint)));
  LD_OBS_COUNTER_ADD(obs::names::kSnapshotWritesTotal, 1);
  LD_OBS_COUNTER_ADD(obs::names::kSnapshotWriteBytesTotal,
                     kFileHeaderSize + payload.size());
  LD_OBS_HIST_RECORD(obs::names::kSnapshotWriteMicros,
                     (obs::NowNanos() - write_start_ns) / 1000);
  return Status::Ok();
}

Result<std::vector<std::uint8_t>> ReadSnapshotFile(
    const std::string& path, std::uint64_t* fingerprint,
    std::uint64_t expected_fingerprint) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFoundError("snapshot: cannot open " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(
      static_cast<std::size_t>(std::max(file_size, 0L)));
  const std::size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (file_size < 0 || read != bytes.size()) {
    return ParseError("snapshot: short read from " + path);
  }
  auto valid =
      ValidateDurableFile(bytes, kSnapshotFormat, expected_fingerprint, path);
  if (!valid.ok()) return InContext("snapshot: ", valid.status());
  if (fingerprint != nullptr) *fingerprint = valid->fingerprint;
  bytes.erase(bytes.begin(), bytes.begin() + kFileHeaderSize);
  return bytes;
}

SnapshotStore::SnapshotStore(std::string dir, std::size_t keep_generations)
    : dir_(std::move(dir)),
      keep_generations_(std::max<std::size_t>(keep_generations, 2)) {}

std::string SnapshotStore::PathFor(std::uint64_t generation) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%06llu%s", kSnapshotPrefix,
                static_cast<unsigned long long>(generation), kSnapshotSuffix);
  return dir_ + "/" + name;
}

std::vector<std::uint64_t> SnapshotStore::Generations() const {
  std::vector<std::uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= std::strlen(kSnapshotPrefix) + std::strlen(kSnapshotSuffix) ||
        name.rfind(kSnapshotPrefix, 0) != 0 ||
        name.substr(name.size() - std::strlen(kSnapshotSuffix)) !=
            kSnapshotSuffix) {
      continue;
    }
    const std::string digits =
        name.substr(std::strlen(kSnapshotPrefix),
                    name.size() - std::strlen(kSnapshotPrefix) -
                        std::strlen(kSnapshotSuffix));
    char* end = nullptr;
    const std::uint64_t gen = std::strtoull(digits.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' && gen > 0) gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

Result<std::uint64_t> SnapshotStore::Write(
    const std::vector<std::uint8_t>& payload, std::uint64_t fingerprint) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return InternalError("snapshot: cannot create directory " + dir_ + ": " +
                         ec.message());
  }
  const std::vector<std::uint64_t> gens = Generations();
  const std::uint64_t next = gens.empty() ? 1 : gens.back() + 1;
  LD_TRY(WriteSnapshotFile(PathFor(next), payload, fingerprint));
  // Prune: keep the newest keep_generations_ (the new one included).
  if (gens.size() + 1 > keep_generations_) {
    const std::size_t drop = gens.size() + 1 - keep_generations_;
    for (std::size_t i = 0; i < drop && i < gens.size(); ++i) {
      fs::remove(PathFor(gens[i]), ec);
    }
  }
  return next;
}

Result<SnapshotStore::Loaded> SnapshotStore::LoadLatest(
    std::uint64_t expected_fingerprint,
    const std::function<Status(std::span<const std::uint8_t>)>& decode)
    const {
  const std::vector<std::uint64_t> gens = Generations();
  Loaded loaded;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    // A snapshot computed from different input (a stale directory or a
    // foreign partial), or one that does not decode, is as unusable as
    // a torn one.
    std::uint64_t fingerprint = 0;
    const auto payload =
        ReadSnapshotFile(PathFor(*it), &fingerprint, expected_fingerprint);
    const Status decoded = payload.ok() ? decode(*payload) : payload.status();
    if (decoded.ok()) {
      // The decoder has taken what it needs; the bytes die here.
      loaded.generation = *it;
      loaded.fingerprint = fingerprint;
      LD_OBS_COUNTER_ADD(obs::names::kSnapshotRestoresTotal, 1);
      return loaded;
    }
    if (payload.ok() && decoded.code() != StatusCode::kParseError) {
      return decoded;
    }
    // Counted per rejection (not batched on a successful load) so a
    // directory whose every generation is bad still shows up.
    ++loaded.rejected;
    LD_OBS_COUNTER_ADD(obs::names::kSnapshotRejectedTotal, 1);
  }
  return NotFoundError("snapshot: no valid snapshot in " + dir_ +
                       (loaded.rejected != 0
                            ? " (" + std::to_string(loaded.rejected) +
                                  " rejected as torn/corrupt/mismatched)"
                            : ""));
}

Status SnapshotStore::Clear() const {
  std::error_code ec;
  for (std::uint64_t gen : Generations()) {
    fs::remove(PathFor(gen), ec);
    if (ec) {
      return InternalError("snapshot: cannot remove " + PathFor(gen) + ": " +
                           ec.message());
    }
  }
  return Status::Ok();
}

}  // namespace ld
