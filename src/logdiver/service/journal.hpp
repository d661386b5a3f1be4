// Per-tenant write-ahead ingest journal: the durability half of the
// service's exactly-once contract.
//
// Every accepted INGEST is appended here — source tag and the raw line —
// with an unbuffered write(2) *before* the OK reply goes out.  An
// acknowledged line therefore survives kill -9 of the daemon: recovery
// restores the tenant's latest snapshot and replays the journal suffix
// past the snapshot's recorded byte offset through the shard's apply
// path, which parses and claims each line exactly as the live run did.
//
// File format (text, one record per line — see docs/FORMATS.md):
//
//   #ldj 2\n                    version record, at the head
//   <s> <raw line>\n            s in {t,a,s,h}
//
// A crash can tear at most the final record (single appender, O_APPEND
// writes).  Recovery validates records as it replays and truncates the
// journal at the first torn/malformed byte — everything before it was
// acknowledged and is kept; the torn tail was never acknowledged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "logdiver/records.hpp"

namespace ld::service {

/// One replayed journal record.
struct JournalRecord {
  LogSource source = LogSource::kTorque;
  std::string line;
  /// Journal byte offset just past this record — what a snapshot taken
  /// after applying it must store as its resume offset.
  std::uint64_t end_offset = 0;
};

/// Single-appender journal file.  Thread-compatible, not thread-safe:
/// the owning shard serializes Append calls under its ingest lock.
class TenantJournal {
 public:
  /// The first bytes of every journal this build writes.
  static constexpr std::string_view kVersionRecord = "#ldj 2\n";

  TenantJournal() = default;
  ~TenantJournal();
  TenantJournal(const TenantJournal&) = delete;
  TenantJournal& operator=(const TenantJournal&) = delete;

  /// Opens (creates) `path` for appending — an empty file gets the
  /// version record; `size()` reflects the contents.  Call Replay +
  /// TruncateTo first on recovery so a torn tail is cut before new
  /// records land after it.
  Status Open(const std::string& path);
  void Close();
  bool is_open() const { return fd_ >= 0; }

  /// Appends one record with a single unbuffered write(2) and returns
  /// the byte offset just past it.  On any error the journal is closed
  /// and the shard must stop acknowledging — a lost append may not be
  /// acked.
  Result<std::uint64_t> Append(LogSource source, std::string_view line);

  /// Flushes file data to disk (fdatasync).  The shard calls this
  /// before every snapshot: the snapshot's resume offset must never
  /// point past what the disk holds.
  Status Sync();

  /// Bytes appended so far (== file size while open).
  std::uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Replays `path` from `from_offset`, invoking `fn` per valid record
  /// in order.  Stops at the first torn/malformed record and returns
  /// the byte offset where valid data ends; a missing file replays
  /// nothing and returns `from_offset`, a torn version record returns
  /// 0.  The older layout (no version record) fails, unread.
  static Result<std::uint64_t> Replay(
      const std::string& path, std::uint64_t from_offset,
      const std::function<void(const JournalRecord&)>& fn);

  /// Truncates `path` to `size` bytes (recovery cutting a torn tail).
  static Status TruncateTo(const std::string& path, std::uint64_t size);

 private:
  Status Write(std::string_view bytes);

  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::string path_;
};

}  // namespace ld::service
