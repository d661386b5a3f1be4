// Self-observability: span tracing in the Chrome `trace_event` format.
//
// When tracing is armed (Tracer::Start, typically via the CLI's
// `--trace-out`), LD_OBS_SPAN scopes record complete events ("ph":"X")
// with a start timestamp, a duration and the recording thread's id.
// The resulting JSON loads directly into chrome://tracing or Perfetto
// (ui.perfetto.dev), which renders one swimlane per thread — the
// fastest way to *see* why a thread-scaling curve flattens (idle lanes,
// one giant serial reduction, a straggler task).
//
// Spans are stage/file/task-grained, never per line; an un-armed tracer
// costs one relaxed load per span site.  Event recording takes a mutex:
// at that granularity (thousands of events per gigabyte of logs) the
// contention is unmeasurable, and it keeps writing/draining trivially
// correct.  Walkthrough and format details: docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace ld::obs {

/// One completed span.  Timestamps are microseconds since Start().
struct TraceEvent {
  std::string name;
  double ts_us = 0;
  double dur_us = 0;
  int tid = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  /// Arms the tracer: clears any previous events and re-bases the
  /// timestamp epoch.  Spans opened before Start() are not recorded.
  void Start();
  /// Disarms; recorded events stay available to ToJson/WriteJson.
  void Stop();
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Records a completed span; start/end are NowNanos() values.  Called
  /// by Span's destructor — use LD_OBS_SPAN, not this, at call sites.
  void Emit(std::string name, std::uint64_t start_ns, std::uint64_t end_ns);

  std::size_t event_count() const;

  /// The full trace as a chrome://tracing / Perfetto-loadable JSON
  /// object ({"traceEvents": [...], ...}), events sorted by timestamp.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

  /// Small dense id of the calling thread (used as the trace "tid").
  static int ThreadId();

 private:
  Tracer() = default;

  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> epoch_ns_{0};
};

/// RAII span: captures the clock on construction when the tracer is
/// armed, emits a complete event on destruction.  Instantiate through
/// LD_OBS_SPAN (obs.hpp).
class Span {
 public:
  explicit Span(const char* name) : name_(name) {
    if (Tracer::Get().active()) {
      start_ns_ = NowNanosForSpan();
      armed_ = true;
    }
  }
  /// Dynamic-name overload (e.g. per-file spans).  The string is only
  /// materialized when the tracer is armed.
  explicit Span(const std::string& name) : Span(name.c_str()) {
    if (armed_) dynamic_name_ = name;
  }
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static std::uint64_t NowNanosForSpan();

  const char* name_;
  std::string dynamic_name_;
  std::uint64_t start_ns_ = 0;
  bool armed_ = false;
};

}  // namespace ld::obs
