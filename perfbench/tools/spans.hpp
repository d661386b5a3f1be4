// In-memory span log for the benchmark's traced run.
//
// A span is (name, start, end, parent span, pass id).  Spans are opened
// and closed around calls into the library's public functions, from the
// benchmark's own code only — the library's obs::Tracer is never armed.
// They stay in memory and are written out once, when the run ends.
// Single-threaded: every span is opened and closed on the main thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::uint64_t NowNs();

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;  // index of the enclosing span, -1 for a root
    int pass = 0;
  };

  explicit SpanLog(int pass) : pass_(pass) {}

  /// Opens a span under the innermost open one; returns its index.
  int Begin(std::string name);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);

  /// Summed duration of every span called `name`, in milliseconds.
  double TotalMs(std::string_view name) const;
  /// Summed duration of root spans' direct children, in milliseconds.
  double ChildrenMs(std::string_view root) const;
  /// Number of spans opened so far.
  std::size_t size() const { return spans_.size(); }

  /// Writes every span as a JSON array to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int pass_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), id_(log.Begin(std::move(name))) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench
