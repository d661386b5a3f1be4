// Self-observability entry point: the LD_OBS_* macros every
// instrumented call site uses.
//
// Observability has one mode: always compiled in, always recording.
// Each macro looks its metric up once per call site (a function-local
// static reference) and then records with relaxed atomics; hand-timed
// sections read the clock with obs::NowNanos().  Spans record only
// while the tracer is armed (`--trace-out`).
//
// Metric names must come from names.hpp (the documented catalog), never
// be spelled inline.  Instrumentation granularity is per parse block /
// stage / file / pool task — never per log line; that convention is
// what keeps the recording cost out of the wall time.
#pragma once

#include "common/obs/metrics.hpp"
#include "common/obs/names.hpp"
#include "common/obs/trace.hpp"

#define LD_OBS_CONCAT_IMPL_(a, b) a##b
#define LD_OBS_CONCAT_(a, b) LD_OBS_CONCAT_IMPL_(a, b)

/// Adds `delta` to the named counter.  The registry lookup happens once
/// per call site (static reference); the hot path is one relaxed
/// fetch_add.
#define LD_OBS_COUNTER_ADD(name, delta)                  \
  do {                                                   \
    static ::ld::obs::Counter& ld_obs_metric_ =          \
        ::ld::obs::Registry::Get().GetCounter(name);     \
    ld_obs_metric_.Add(delta);                           \
  } while (0)

/// Sets the named gauge (and folds its high-water mark).
#define LD_OBS_GAUGE_SET(name, value)                    \
  do {                                                   \
    static ::ld::obs::Gauge& ld_obs_metric_ =            \
        ::ld::obs::Registry::Get().GetGauge(name);       \
    ld_obs_metric_.Set(value);                           \
  } while (0)

/// Records `value` into the named log2 histogram.
#define LD_OBS_HIST_RECORD(name, value)                  \
  do {                                                   \
    static ::ld::obs::Histogram& ld_obs_metric_ =        \
        ::ld::obs::Registry::Get().GetHistogram(name);   \
    ld_obs_metric_.Record(value);                        \
  } while (0)

/// RAII trace span covering the rest of the enclosing scope.  `name` is
/// a string literal or a computed std::string (copied only while the
/// tracer is armed).
#define LD_OBS_SPAN(name) \
  ::ld::obs::Span LD_OBS_CONCAT_(ld_obs_span_, __LINE__)(name)
