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
  if (status_.ok()) {
    status_ = InternalError("snapshot payload: " + std::move(why));
  }
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

// --- shared struct serializers ---------------------------------------

void SaveParseStats(SnapshotWriter& w, const ParseStats& s) {
  w.U64(s.lines);
  w.U64(s.records);
  w.U64(s.skipped);
  w.U64(s.malformed);
}

void LoadParseStats(SnapshotReader& r, ParseStats& s) {
  s.lines = r.U64();
  s.records = r.U64();
  s.skipped = r.U64();
  s.malformed = r.U64();
}

void SaveIngestStats(SnapshotWriter& w, const IngestStats& s) {
  w.U64(s.quarantined);
  w.U64(s.quarantine_overflow);
  w.U64(s.duplicate_placements);
  w.U64(s.duplicate_terminations);
  w.U64(s.duplicate_job_records);
  w.U64(s.watermark_regressions);
  w.U64(s.evicted_pending_runs);
  w.U64(s.evicted_tuples);
  w.U64(s.budget_exhausted_sources);
  w.U64(s.lines_dropped_after_budget);
}

void LoadIngestStats(SnapshotReader& r, IngestStats& s) {
  s.quarantined = r.U64();
  s.quarantine_overflow = r.U64();
  s.duplicate_placements = r.U64();
  s.duplicate_terminations = r.U64();
  s.duplicate_job_records = r.U64();
  s.watermark_regressions = r.U64();
  s.evicted_pending_runs = r.U64();
  s.evicted_tuples = r.U64();
  s.budget_exhausted_sources = r.U64();
  s.lines_dropped_after_budget = r.U64();
}

void SaveReconstructStats(SnapshotWriter& w, const ReconstructStats& s) {
  w.U64(s.placements);
  w.U64(s.terminations);
  w.U64(s.runs);
  w.U64(s.missing_termination);
  w.U64(s.orphan_terminations);
  w.U64(s.missing_job);
  w.U64(s.mixed_node_types);
  w.U64(s.duplicate_placements);
  w.U64(s.duplicate_terminations);
  w.U64(s.duplicate_job_records);
}

void LoadReconstructStats(SnapshotReader& r, ReconstructStats& s) {
  s.placements = r.U64();
  s.terminations = r.U64();
  s.runs = r.U64();
  s.missing_termination = r.U64();
  s.orphan_terminations = r.U64();
  s.missing_job = r.U64();
  s.mixed_node_types = r.U64();
  s.duplicate_placements = r.U64();
  s.duplicate_terminations = r.U64();
  s.duplicate_job_records = r.U64();
}

void SaveAnalysisSummary(SnapshotWriter& w, const AnalysisSummary& summary) {
  SaveMetricsReport(w, summary.metrics);
  SaveParseStats(w, summary.torque_stats);
  SaveParseStats(w, summary.alps_stats);
  SaveParseStats(w, summary.syslog_stats);
  SaveParseStats(w, summary.hwerr_stats);
  w.U64(summary.coalesce_stats.input_events);
  w.U64(summary.coalesce_stats.tuples);
  w.U64(summary.coalesce_stats.unresolved_locations);
  SaveReconstructStats(w, summary.reconstruct_stats);
  SaveIngestStats(w, summary.ingest);
  SaveStatus(w, summary.ingest_status);
}

void LoadAnalysisSummary(SnapshotReader& r, AnalysisSummary& summary) {
  LoadMetricsReport(r, summary.metrics);
  LoadParseStats(r, summary.torque_stats);
  LoadParseStats(r, summary.alps_stats);
  LoadParseStats(r, summary.syslog_stats);
  LoadParseStats(r, summary.hwerr_stats);
  summary.coalesce_stats.input_events = r.U64();
  summary.coalesce_stats.tuples = r.U64();
  summary.coalesce_stats.unresolved_locations = r.U64();
  LoadReconstructStats(r, summary.reconstruct_stats);
  LoadIngestStats(r, summary.ingest);
  summary.ingest_status = LoadStatus(r);
}

void SaveStatus(SnapshotWriter& w, const Status& s) {
  w.U8(static_cast<std::uint8_t>(s.code()));
  w.Str(s.message());
}

Status LoadStatus(SnapshotReader& r) {
  const auto code = static_cast<StatusCode>(r.U8());
  std::string message = r.Str();
  if (code == StatusCode::kOk) return Status::Ok();
  return Status(code, std::move(message));
}

void SaveTorqueRecord(SnapshotWriter& w, const TorqueRecord& rec) {
  w.U8(static_cast<std::uint8_t>(rec.kind));
  w.Time(rec.time);
  w.U64(rec.jobid);
  w.Str(rec.user.view());
  w.Str(rec.queue.view());
  w.Time(rec.submit);
  w.Time(rec.start);
  w.Time(rec.end);
  w.I32(rec.exit_status);
  w.U32(rec.nodect);
  w.Dur(rec.walltime_limit);
  w.Dur(rec.walltime_used);
}

void LoadTorqueRecord(SnapshotReader& r, TorqueRecord& rec) {
  rec.kind = static_cast<TorqueRecord::Kind>(r.U8());
  rec.time = r.Time();
  rec.jobid = r.U64();
  rec.user = Intern(r.Str());
  rec.queue = Intern(r.Str());
  rec.submit = r.Time();
  rec.start = r.Time();
  rec.end = r.Time();
  rec.exit_status = r.I32();
  rec.nodect = r.U32();
  rec.walltime_limit = r.Dur();
  rec.walltime_used = r.Dur();
}

void SaveAppRun(SnapshotWriter& w, const AppRun& run) {
  w.U64(run.apid);
  w.U64(run.jobid);
  w.Str(run.user.view());
  w.Str(run.queue.view());
  w.U8(static_cast<std::uint8_t>(run.node_type));
  w.U32(static_cast<std::uint32_t>(run.nodes.size()));
  for (NodeIndex n : run.nodes) w.U32(n);
  w.U32(run.nodect);
  w.Time(run.start);
  w.Time(run.end);
  w.Bool(run.has_termination);
  w.I32(run.exit_code);
  w.I32(run.exit_signal);
  w.Bool(run.killed_node_failure);
  w.U32(run.failed_nid);
  w.Time(run.job_submit);
  w.Time(run.job_start);
  w.Dur(run.walltime_limit);
  w.I32(run.job_exit_status);
}

void LoadAppRun(SnapshotReader& r, AppRun& run) {
  run.apid = r.U64();
  run.jobid = r.U64();
  run.user = Intern(r.Str());
  run.queue = Intern(r.Str());
  run.node_type = static_cast<NodeType>(r.U8());
  const std::uint32_t nodes = r.U32();
  run.nodes.clear();
  // Each entry is a u32: a count past the payload is malformed, and
  // must not size an allocation.
  if (nodes > r.remaining() / 4) {
    r.Fail("run node count exceeds the payload");
    return;
  }
  run.nodes.reserve(nodes);
  for (std::uint32_t i = 0; i < nodes && r.ok(); ++i) {
    run.nodes.push_back(r.U32());
  }
  run.nodect = r.U32();
  run.start = r.Time();
  run.end = r.Time();
  run.has_termination = r.Bool();
  run.exit_code = r.I32();
  run.exit_signal = r.I32();
  run.killed_node_failure = r.Bool();
  run.failed_nid = r.U32();
  run.job_submit = r.Time();
  run.job_start = r.Time();
  run.walltime_limit = r.Dur();
  run.job_exit_status = r.I32();
}

void SaveErrorRecord(SnapshotWriter& w, const ErrorRecord& rec) {
  w.Time(rec.time);
  w.U8(static_cast<std::uint8_t>(rec.category));
  w.U8(static_cast<std::uint8_t>(rec.severity));
  w.U8(static_cast<std::uint8_t>(rec.scope));
  w.Str(rec.location.view());
  w.U8(static_cast<std::uint8_t>(rec.source));
  w.Bool(rec.recovered.has_value());
  if (rec.recovered.has_value()) w.Time(*rec.recovered);
}

void LoadErrorRecord(SnapshotReader& r, ErrorRecord& rec) {
  rec.time = r.Time();
  rec.category = static_cast<ErrorCategory>(r.U8());
  rec.severity = static_cast<Severity>(r.U8());
  rec.scope = static_cast<LocScope>(r.U8());
  rec.location = Intern(r.Str());
  rec.source = static_cast<LogSource>(r.U8());
  rec.recovered.reset();
  if (r.Bool()) rec.recovered = r.Time();
}

void SaveErrorTuple(SnapshotWriter& w, const ErrorTuple& tuple) {
  w.U64(tuple.id);
  w.U8(static_cast<std::uint8_t>(tuple.category));
  w.U8(static_cast<std::uint8_t>(tuple.severity));
  w.U8(static_cast<std::uint8_t>(tuple.scope));
  w.Str(tuple.location.view());
  w.U32(static_cast<std::uint32_t>(tuple.nodes.size()));
  for (NodeIndex n : tuple.nodes) w.U32(n);
  w.Time(tuple.first);
  w.Time(tuple.last);
  w.Bool(tuple.recovered.has_value());
  if (tuple.recovered.has_value()) w.Time(*tuple.recovered);
  w.U32(tuple.count);
  w.Bool(tuple.from_syslog);
  w.Bool(tuple.from_hwerr);
}

void LoadErrorTuple(SnapshotReader& r, ErrorTuple& tuple) {
  tuple.id = r.U64();
  tuple.category = static_cast<ErrorCategory>(r.U8());
  tuple.severity = static_cast<Severity>(r.U8());
  tuple.scope = static_cast<LocScope>(r.U8());
  tuple.location = Intern(r.Str());
  const std::uint32_t nodes = r.U32();
  tuple.nodes.clear();
  if (nodes > NodeSet::kCapacity || nodes > r.remaining() / 4) {
    r.Fail("tuple node count exceeds " +
           std::to_string(NodeSet::kCapacity) + " or the payload");
    return;
  }
  for (std::uint32_t i = 0; i < nodes && r.ok(); ++i) {
    tuple.nodes.push_back(r.U32());
  }
  tuple.first = r.Time();
  tuple.last = r.Time();
  tuple.recovered.reset();
  if (r.Bool()) tuple.recovered = r.Time();
  tuple.count = r.U32();
  tuple.from_syslog = r.Bool();
  tuple.from_hwerr = r.Bool();
}

void SaveQuarantineEntry(SnapshotWriter& w, const QuarantineEntry& e) {
  w.U8(static_cast<std::uint8_t>(e.source));
  w.U64(e.line_number);
  w.Str(e.reason);
  w.Str(e.line);
}

void LoadQuarantineEntry(SnapshotReader& r, QuarantineEntry& e) {
  e.source = static_cast<LogSource>(r.U8());
  e.line_number = r.U64();
  e.reason = r.Str();
  e.line = r.Str();
}

void SaveMetricsReport(SnapshotWriter& w, const MetricsReport& report) {
  w.U64(report.total_runs);
  w.F64(report.total_node_hours);
  w.F64(report.system_failure_fraction);
  w.F64(report.lost_node_hours_fraction);
  w.F64(report.overall_mtti_hours);

  w.U32(static_cast<std::uint32_t>(report.outcomes.size()));
  for (const OutcomeRow& row : report.outcomes) {
    w.U8(static_cast<std::uint8_t>(row.outcome));
    w.U64(row.runs);
    w.F64(row.runs_share);
    w.F64(row.node_hours);
    w.F64(row.node_hours_share);
  }

  w.U32(static_cast<std::uint32_t>(report.categories.size()));
  for (const CategoryRow& row : report.categories) {
    w.U8(static_cast<std::uint8_t>(row.category));
    w.U64(row.tuples);
    w.U64(row.fatal_tuples);
    w.U64(row.raw_events);
    w.F64(row.fatal_mtbe_hours);
  }

  w.U64(report.availability.incidents);
  w.F64(report.availability.downtime_hours);
  w.F64(report.availability.availability);

  w.U32(static_cast<std::uint32_t>(report.attribution.size()));
  for (const AttributionRow& row : report.attribution) {
    w.U8(static_cast<std::uint8_t>(row.cause));
    w.U64(row.xe_failures);
    w.U64(row.xk_failures);
  }

  for (const auto* scale : {&report.xe_scale, &report.xk_scale}) {
    w.U32(static_cast<std::uint32_t>(scale->size()));
    for (const ScalePoint& p : *scale) {
      w.U32(p.lo);
      w.U32(p.hi);
      w.U64(p.runs);
      w.U64(p.system_failures);
      w.F64(p.failure_probability.point);
      w.F64(p.failure_probability.lo);
      w.F64(p.failure_probability.hi);
    }
  }

  w.U32(static_cast<std::uint32_t>(report.monthly.size()));
  for (const MonthlyPoint& p : report.monthly) {
    w.I32(p.year);
    w.I32(p.month);
    w.U64(p.runs);
    w.U64(p.system_failures);
    w.F64(p.node_hours);
    w.F64(p.lost_node_hours);
    w.F64(p.mtti_hours);
  }

  w.U32(static_cast<std::uint32_t>(report.detection_gap.size()));
  for (const DetectionGapRow& row : report.detection_gap) {
    w.U8(static_cast<std::uint8_t>(row.type));
    w.U64(row.system_failures);
    w.U64(row.attributed);
    w.U64(row.unattributed);
    w.F64(row.unattributed_share);
  }

  w.U32(static_cast<std::uint32_t>(report.queue_waits.size()));
  for (const QueueWaitRow& row : report.queue_waits) {
    w.U32(row.lo);
    w.U32(row.hi);
    w.U64(row.jobs);
    w.F64(row.mean_wait_hours);
    w.F64(row.p95_wait_hours);
  }

  w.U64(report.job_impact.jobs);
  w.U64(report.job_impact.jobs_with_system_failure);
  w.F64(report.job_impact.fraction);

  SaveIngestStats(w, report.ingest);
}

void LoadMetricsReport(SnapshotReader& r, MetricsReport& report) {
  report.total_runs = r.U64();
  report.total_node_hours = r.F64();
  report.system_failure_fraction = r.F64();
  report.lost_node_hours_fraction = r.F64();
  report.overall_mtti_hours = r.F64();

  report.outcomes.resize(r.U32());
  for (OutcomeRow& row : report.outcomes) {
    row.outcome = static_cast<AppOutcome>(r.U8());
    row.runs = r.U64();
    row.runs_share = r.F64();
    row.node_hours = r.F64();
    row.node_hours_share = r.F64();
  }

  report.categories.resize(r.U32());
  for (CategoryRow& row : report.categories) {
    row.category = static_cast<ErrorCategory>(r.U8());
    row.tuples = r.U64();
    row.fatal_tuples = r.U64();
    row.raw_events = r.U64();
    row.fatal_mtbe_hours = r.F64();
  }

  report.availability.incidents = r.U64();
  report.availability.downtime_hours = r.F64();
  report.availability.availability = r.F64();

  report.attribution.resize(r.U32());
  for (AttributionRow& row : report.attribution) {
    row.cause = static_cast<ErrorCategory>(r.U8());
    row.xe_failures = r.U64();
    row.xk_failures = r.U64();
  }

  for (auto* scale : {&report.xe_scale, &report.xk_scale}) {
    scale->resize(r.U32());
    for (ScalePoint& p : *scale) {
      p.lo = r.U32();
      p.hi = r.U32();
      p.runs = r.U64();
      p.system_failures = r.U64();
      p.failure_probability.point = r.F64();
      p.failure_probability.lo = r.F64();
      p.failure_probability.hi = r.F64();
    }
  }

  report.monthly.resize(r.U32());
  for (MonthlyPoint& p : report.monthly) {
    p.year = r.I32();
    p.month = r.I32();
    p.runs = r.U64();
    p.system_failures = r.U64();
    p.node_hours = r.F64();
    p.lost_node_hours = r.F64();
    p.mtti_hours = r.F64();
  }

  report.detection_gap.resize(r.U32());
  for (DetectionGapRow& row : report.detection_gap) {
    row.type = static_cast<NodeType>(r.U8());
    row.system_failures = r.U64();
    row.attributed = r.U64();
    row.unattributed = r.U64();
    row.unattributed_share = r.F64();
  }

  report.queue_waits.resize(r.U32());
  for (QueueWaitRow& row : report.queue_waits) {
    row.lo = r.U32();
    row.hi = r.U32();
    row.jobs = r.U64();
    row.mean_wait_hours = r.F64();
    row.p95_wait_hours = r.F64();
  }

  report.job_impact.jobs = r.U64();
  report.job_impact.jobs_with_system_failure = r.U64();
  report.job_impact.fraction = r.F64();

  LoadIngestStats(r, report.ingest);
}

std::uint32_t FingerprintReport(const MetricsReport& report) {
  SnapshotWriter w;
  SaveMetricsReport(w, report);
  return Crc32(w.bytes());
}

std::uint32_t FingerprintIngest(const IngestStats& stats) {
  SnapshotWriter w;
  SaveIngestStats(w, stats);
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
  const std::uint64_t write_start_ns = LD_OBS_NOW_NS();
  LD_TRY(InContext("snapshot: ", WriteDurableFile(path, kSnapshotFormat,
                                                  payload, fingerprint)));
  LD_OBS_COUNTER_ADD(obs::names::kSnapshotWritesTotal, 1);
  LD_OBS_COUNTER_ADD(obs::names::kSnapshotWriteBytesTotal,
                     kFileHeaderSize + payload.size());
  if (write_start_ns != 0) {
    LD_OBS_HIST_RECORD(obs::names::kSnapshotWriteMicros,
                       (LD_OBS_NOW_NS() - write_start_ns) / 1000);
  }
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
    std::uint64_t expected_fingerprint) const {
  const std::vector<std::uint64_t> gens = Generations();
  Loaded loaded;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    // A snapshot computed from different input (a stale directory or a
    // foreign partial) is as unusable as a torn one.
    std::uint64_t fingerprint = 0;
    auto payload =
        ReadSnapshotFile(PathFor(*it), &fingerprint, expected_fingerprint);
    if (payload.ok()) {
      loaded.payload = std::move(*payload);
      loaded.generation = *it;
      loaded.fingerprint = fingerprint;
      LD_OBS_COUNTER_ADD(obs::names::kSnapshotRestoresTotal, 1);
      return loaded;
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
