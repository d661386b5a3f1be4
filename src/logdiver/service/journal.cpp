#include "logdiver/service/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

namespace ld::service {
namespace {

char SourceTag(LogSource source) {
  switch (source) {
    case LogSource::kTorque: return 't';
    case LogSource::kAlps: return 'a';
    case LogSource::kSyslog: return 's';
    case LogSource::kHwerr: return 'h';
  }
  return '?';
}

bool TagToSource(char tag, LogSource& out) {
  switch (tag) {
    case 't': out = LogSource::kTorque; return true;
    case 'a': out = LogSource::kAlps; return true;
    case 's': out = LogSource::kSyslog; return true;
    case 'h': out = LogSource::kHwerr; return true;
    default: return false;
  }
}

/// Parses "<s> <raw line>" (no trailing newline).
bool ParseRecordLine(std::string_view text, JournalRecord& rec) {
  if (text.size() < 2 || text[1] != ' ') return false;
  if (!TagToSource(text[0], rec.source)) return false;
  rec.line = std::string(text.substr(2));
  return true;
}

}  // namespace

TenantJournal::~TenantJournal() { Close(); }

void TenantJournal::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status TenantJournal::Open(const std::string& path) {
  Close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    return InternalError("journal: cannot open " + path + ": " +
                         std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    const Status err = InternalError("journal: fstat " + path + ": " +
                                     std::strerror(errno));
    Close();
    return err;
  }
  size_ = 0;
  path_ = path;
  if (st.st_size == 0) return Write(kVersionRecord);
  size_ = static_cast<std::uint64_t>(st.st_size);
  return Status::Ok();
}

Result<std::uint64_t> TenantJournal::Append(LogSource source,
                                            std::string_view line) {
  if (fd_ < 0) return FailedPreconditionError("journal: not open");
  std::string record;
  record.reserve(line.size() + 3);
  record.push_back(SourceTag(source));
  record.push_back(' ');
  record.append(line);
  record.push_back('\n');
  LD_TRY(Write(record));
  return size_;
}

Status TenantJournal::Write(std::string_view bytes) {
  // One write(2) for the whole record: with O_APPEND a crash tears at
  // most this record, never an earlier one.
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + written,
                              bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status err = InternalError("journal: write " + path_ + ": " +
                                       std::strerror(errno));
      Close();  // a possibly-partial append must never be acked over
      return err;
    }
    written += static_cast<std::size_t>(n);
  }
  size_ += bytes.size();
  return Status::Ok();
}

Status TenantJournal::Sync() {
  if (fd_ < 0) return FailedPreconditionError("journal: not open");
  if (::fdatasync(fd_) != 0) {
    return InternalError("journal: fdatasync " + path_ + ": " +
                         std::strerror(errno));
  }
  return Status::Ok();
}

Result<std::uint64_t> TenantJournal::Replay(
    const std::string& path, std::uint64_t from_offset,
    const std::function<void(const JournalRecord&)>& fn) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return from_offset;  // no journal yet: nothing to replay
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  std::string head(std::min<std::uint64_t>(file_size, kVersionRecord.size()),
                   '\0');
  in.seekg(0);
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  if (!kVersionRecord.starts_with(head)) {
    return FailedPreconditionError(
        "journal: " + path + " has no '#ldj 2' version record — it is in "
        "the older '<s> <claimed_unix> <raw line>' layout, which this "
        "build does not replay; the file is left as it is");
  }
  if (from_offset > file_size) {
    return FailedPreconditionError(
        "journal: snapshot offset " + std::to_string(from_offset) +
        " past the end of " + path + " (" + std::to_string(file_size) +
        " bytes) — snapshot and journal disagree");
  }
  // Empty, or torn inside the version record: nothing was acknowledged.
  if (head.size() < kVersionRecord.size()) return 0;
  std::uint64_t valid_end =
      std::max<std::uint64_t>(from_offset, kVersionRecord.size());
  in.seekg(static_cast<std::streamoff>(valid_end));
  std::string text;
  while (std::getline(in, text)) {
    const std::uint64_t line_end =
        valid_end + static_cast<std::uint64_t>(text.size()) + 1;
    if (line_end > file_size) break;  // final line had no newline: torn
    JournalRecord rec;
    if (!ParseRecordLine(text, rec)) break;  // torn mid-record
    rec.end_offset = line_end;
    fn(rec);
    valid_end = line_end;
  }
  return valid_end;
}

Status TenantJournal::TruncateTo(const std::string& path,
                                 std::uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    if (errno == ENOENT && size == 0) return Status::Ok();
    return InternalError("journal: truncate " + path + ": " +
                         std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace ld::service
