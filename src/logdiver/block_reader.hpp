// Zero-copy file ingestion: mmap-backed file views split into newline-
// aligned blocks, each block split into string_view lines.
//
// The batch pipeline reads multi-gigabyte bundles; copying every line
// into a std::string (the old ReadLines path) doubles the memory and
// burns the parse budget on allocator traffic.  Here the file is mapped
// once (with a read-into-buffer fallback for filesystems that refuse
// mmap), cut into ~4 MB blocks whose edges land on newline boundaries —
// so a line spanning a block edge belongs wholly to the earlier block —
// and the per-block line splitting runs on the ingestion thread pool.
// Every line is a view into the mapping: zero copies until a parser
// materializes the fields it keeps.
//
// Line semantics match the legacy ReadLines exactly: '\n' terminates a
// line, a trailing '\r' is stripped (CRLF logs), a final unterminated
// line is kept, and a trailing newline does not produce an empty line.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace ld {

class ThreadPool;

/// Target block size for SplitBlocks/SplitLinesParallel: big enough to
/// amortize task dispatch, small enough to load-balance a 4-thread pool
/// on a ~100 MB source file.
inline constexpr std::size_t kDefaultBlockBytes = std::size_t{4} << 20;

/// A read-only view of a whole file.  Prefers mmap (the kernel pages in
/// what the parsers touch, nothing is copied); falls back to reading the
/// file into an owned buffer when mmap is unavailable.  Move-only; the
/// data() view stays valid across moves (the mapping address does not
/// change) and dies with the object.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// NotFound only when `path` does not exist; any other failure to
  /// open or read it is another error.
  static Result<MappedFile> Open(const std::string& path);

  std::string_view data() const {
    if (map_ != nullptr) {
      return std::string_view(static_cast<const char*>(map_), size_);
    }
    return std::string_view(fallback_.data(), fallback_.size());
  }
  std::size_t size() const { return data().size(); }
  /// True when the data is an actual mmap (false: fallback buffer).
  bool mapped() const { return map_ != nullptr; }

 private:
  void Reset();

  void* map_ = nullptr;
  std::size_t size_ = 0;
  std::vector<char> fallback_;
};

/// Cuts `data` into consecutive blocks of roughly `target_block_bytes`,
/// extending each block to the next '\n' so no line spans two blocks.
/// Concatenating the blocks reproduces `data` byte for byte.
std::vector<std::string_view> SplitBlocks(std::string_view data,
                                          std::size_t target_block_bytes);

/// Appends the lines of `block` to `out` (ReadLines semantics, see the
/// file comment).  Views alias `block`.
void AppendLines(std::string_view block, std::vector<std::string_view>* out);

/// Splits a whole buffer into lines: blocks are split in parallel on the
/// pool (inline when the pool is null) and concatenated in file order,
/// so the result is identical at any thread count.
std::vector<std::string_view> SplitLinesParallel(
    std::string_view data, ThreadPool* pool,
    std::size_t target_block_bytes = kDefaultBlockBytes);

}  // namespace ld
