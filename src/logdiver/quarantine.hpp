// Ingestion hardening: quarantine sink, per-source error budgets, and
// the degradation policy that decides what happens when a log source
// turns out to be dirtier than expected.
//
// Real field bundles contain torn writes, replayed records, and clock
// skew (the corruption model in docs/FORMATS.md).  The parsers already
// reject malformed *lines*; this layer decides what the pipeline does
// with the rejects: capture them with reasons (quarantine-and-continue)
// or stop trusting the source entirely (fail-fast).  Either way, every
// dropped or deduplicated record is counted in IngestStats so degraded
// output is never silently presented as clean.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "logdiver/records.hpp"

namespace ld {

/// What to do when a source exceeds its malformed-line budget.
enum class DegradationPolicy : std::uint8_t {
  /// Abort the analysis: a source this dirty is probably the wrong file
  /// or a truncated transfer, and partial numbers would mislead.
  kFailFast,
  /// Keep analyzing what parses; the rejects land in the quarantine and
  /// the IngestStats counters disclose the damage.
  kQuarantineAndContinue,
};

/// One rejected line, captured with its rejection reason.
struct QuarantineEntry {
  LogSource source = LogSource::kTorque;
  std::uint64_t line_number = 0;  // 1-based within the source stream
  std::string reason;             // Status::ToString() of the parse error
  std::string line;               // possibly truncated to max_line_bytes
};

struct QuarantineConfig {
  /// Entries retained verbatim; beyond this only counters grow.
  std::size_t max_entries = 10000;
  /// Captured line prefix length (quarantined lines can be huge garbage).
  std::size_t max_line_bytes = 256;
};

/// Bounded capture of rejected lines.  Adding is cheap and never fails;
/// overflow beyond max_entries is counted, not stored.
class QuarantineSink {
 public:
  explicit QuarantineSink(QuarantineConfig config = {});

  void Add(LogSource source, std::uint64_t line_number, std::string_view line,
           const Status& why);

  /// Folds a chunk-local sink into this one, preserving the order the
  /// entries were added with and re-applying this sink's max_entries
  /// bound.  The parallel parse path gives every chunk a private sink
  /// (no locks on the hot path) and merges them in original chunk order,
  /// so the merged sink is bit-identical to a sequential pass.
  void MergeFrom(QuarantineSink&& other);

  const QuarantineConfig& config() const { return config_; }

  const std::vector<QuarantineEntry>& entries() const { return entries_; }
  /// Every rejection seen, including entries dropped on overflow.
  std::uint64_t total() const { return total_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t count(LogSource source) const;

  /// The checkpoint codec (snapshot.hpp): entries, totals, overflow and
  /// the per-source counters round-trip; the config stays
  /// construction-time.
  template <class Io>
  void Fields(Io& io);

 private:
  QuarantineConfig config_;
  std::vector<QuarantineEntry> entries_;
  std::uint64_t total_ = 0;
  std::uint64_t overflow_ = 0;
  std::array<std::uint64_t, kNumLogSources> by_source_{};
};

/// Per-source malformed-line budget: a source is over budget once its
/// malformed count exceeds BOTH the grace floor and the fraction of the
/// lines seen so far.  The floor keeps tiny test streams from tripping
/// on a single bad line; the fraction scales to production volumes.
struct ErrorBudget {
  std::uint64_t min_malformed = 100;
  double max_malformed_fraction = 0.05;

  bool Exceeded(const ParseStats& stats) const {
    return stats.malformed > min_malformed &&
           static_cast<double>(stats.malformed) >
               max_malformed_fraction * static_cast<double>(stats.lines);
  }
};

/// Knobs for the hardened ingestion path (batch and streaming).
struct IngestConfig {
  DegradationPolicy policy = DegradationPolicy::kQuarantineAndContinue;
  ErrorBudget budget;
  QuarantineConfig quarantine;
  /// Bounded-growth caps for the streaming analyzer's retained state.
  /// Exceeding them forcibly flushes the oldest entries (counted in
  /// IngestStats) instead of growing without bound on adversarial input.
  std::size_t max_pending_runs = 50000;
  std::size_t max_buffered_tuples = 100000;
};

/// Health counters of one ingestion pass.  All-zero on a clean bundle;
/// any nonzero field means the input was degraded and says exactly how.
struct IngestStats {
  std::uint64_t quarantined = 0;           // rejected lines captured
  std::uint64_t quarantine_overflow = 0;   // rejected beyond max_entries
  std::uint64_t duplicate_placements = 0;  // replayed apid placements
  std::uint64_t duplicate_terminations = 0;
  std::uint64_t duplicate_job_records = 0;  // replayed Torque S/E records
  std::uint64_t watermark_regressions = 0;  // Advance() calls clamped
  /// Runs classified before their finalize guard elapsed because
  /// pending_ hit max_pending_runs (attribution may be incomplete).
  std::uint64_t evicted_pending_runs = 0;
  /// Tuples dropped from the attribution buffer at max_buffered_tuples.
  std::uint64_t evicted_tuples = 0;
  /// Sources whose malformed-line budget was exceeded.
  std::uint64_t budget_exhausted_sources = 0;
  /// Lines discarded unread after fail-fast closed their source.
  std::uint64_t lines_dropped_after_budget = 0;

  bool clean() const {
    return quarantined == 0 && quarantine_overflow == 0 &&
           duplicate_placements == 0 && duplicate_terminations == 0 &&
           duplicate_job_records == 0 && watermark_regressions == 0 &&
           evicted_pending_runs == 0 && evicted_tuples == 0 &&
           budget_exhausted_sources == 0 && lines_dropped_after_budget == 0;
  }

  /// Counter-wise sum; associative and commutative, so partial stats
  /// from disjoint inputs merge in any order.
  void MergeFrom(const IngestStats& other) {
    quarantined += other.quarantined;
    quarantine_overflow += other.quarantine_overflow;
    duplicate_placements += other.duplicate_placements;
    duplicate_terminations += other.duplicate_terminations;
    duplicate_job_records += other.duplicate_job_records;
    watermark_regressions += other.watermark_regressions;
    evicted_pending_runs += other.evicted_pending_runs;
    evicted_tuples += other.evicted_tuples;
    budget_exhausted_sources += other.budget_exhausted_sources;
    lines_dropped_after_budget += other.lines_dropped_after_budget;
  }
};

}  // namespace ld
