#include "logdiver/block_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/obs/obs.hpp"
#include "common/parallel.hpp"

namespace ld {

MappedFile::MappedFile(MappedFile&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      fallback_(std::move(other.fallback_)) {
  other.fallback_.clear();
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Reset();
    map_ = std::exchange(other.map_, nullptr);
    size_ = std::exchange(other.size_, 0);
    fallback_ = std::move(other.fallback_);
    other.fallback_.clear();
  }
  return *this;
}

MappedFile::~MappedFile() { Reset(); }

void MappedFile::Reset() {
  if (map_ != nullptr) {
    ::munmap(map_, size_);
    map_ = nullptr;
    size_ = 0;
  }
  fallback_.clear();
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    // Only a missing file is NotFound; a file that is there but cannot
    // be opened (permissions, too many open files) is another failure.
    const int open_errno = errno;
    if (open_errno == ENOENT) {
      return NotFoundError("cannot open '" + path + "'");
    }
    return InternalError("cannot open '" + path + "': " +
                         std::strerror(open_errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return InvalidArgumentError("cannot read '" + path +
                                "': not a regular file");
  }
  MappedFile file;
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return file;  // empty view; nothing to map
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map != MAP_FAILED) {
    file.map_ = map;
    file.size_ = size;
    ::close(fd);
    LD_OBS_COUNTER_ADD(obs::names::kIngestBytesMappedTotal, size);
    return file;
  }
  LD_OBS_COUNTER_ADD(obs::names::kIngestMmapFallbackTotal, 1);
  // mmap can fail on odd filesystems (some network mounts, /proc):
  // degrade to reading the whole file into an owned buffer.
  file.fallback_.resize(size);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, file.fallback_.data() + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string why = std::strerror(errno);
      ::close(fd);
      return InternalError("cannot read '" + path + "': " + why);
    }
    if (n == 0) break;  // file shrank under us; keep what we got
    done += static_cast<std::size_t>(n);
  }
  file.fallback_.resize(done);
  ::close(fd);
  return file;
}

std::vector<std::string_view> SplitBlocks(std::string_view data,
                                          std::size_t target_block_bytes) {
  if (target_block_bytes == 0) target_block_bytes = 1;
  std::vector<std::string_view> blocks;
  blocks.reserve(data.size() / target_block_bytes + 1);
  std::size_t pos = 0;
  while (pos < data.size()) {
    std::size_t end = pos + target_block_bytes;
    if (end >= data.size()) {
      end = data.size();
    } else {
      // Extend to the next newline so the edge line stays whole.
      const std::size_t nl = data.find('\n', end - 1);
      end = (nl == std::string_view::npos) ? data.size() : nl + 1;
    }
    blocks.push_back(data.substr(pos, end - pos));
    pos = end;
  }
  return blocks;
}

void AppendLines(std::string_view block, std::vector<std::string_view>* out) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = block.find('\n', start);
    if (nl == std::string_view::npos) break;
    std::string_view line = block.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    out->push_back(line);
    start = nl + 1;
  }
  if (start < block.size()) {  // final line without a terminating newline
    std::string_view line = block.substr(start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    out->push_back(line);
  }
}

std::vector<std::string_view> SplitLinesParallel(
    std::string_view data, ThreadPool* pool, std::size_t target_block_bytes) {
  LD_OBS_SPAN("split_lines");
  const std::vector<std::string_view> blocks =
      SplitBlocks(data, target_block_bytes);
  LD_OBS_COUNTER_ADD(obs::names::kIngestBlocksTotal, blocks.size());
  std::vector<std::vector<std::string_view>> per_block =
      ParallelMap(pool, blocks.size(), [&blocks](std::size_t i) {
        std::vector<std::string_view> lines;
        AppendLines(blocks[i], &lines);
        return lines;
      });
  std::size_t total = 0;
  for (const auto& lines : per_block) total += lines.size();
  std::vector<std::string_view> out;
  out.reserve(total);
  for (const auto& lines : per_block) {
    out.insert(out.end(), lines.begin(), lines.end());
  }
  return out;
}

}  // namespace ld
