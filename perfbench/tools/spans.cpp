#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int SpanLog::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.pass = pass_;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  spans_[static_cast<std::size_t>(id)].start_ns = NowNs();
  return id;
}

void SpanLog::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanLog::TotalMs(std::string_view name) const {
  std::uint64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.name == name) ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

double SpanLog::ChildrenMs(std::string_view root) const {
  std::uint64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
    if (parent.parent < 0 && parent.name == root) {
      ns += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(ns) / 1e6;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"pass\":" << s.pass << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
