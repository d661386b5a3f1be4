// Metric computation: the numbers the field study reports.
//
// Everything the evaluation tables/figures need is derived here from the
// classified runs and the coalesced tuples: outcome breakdowns with
// node-hour shares (Table 3 / anchors A2+A3), error-category rates and
// MTBE (Table 4), root-cause attribution by partition (Table 5), failure
// probability by application scale (Figs 2-3 / anchors A4+A5), monthly
// lost node-hours and MTTI series (Figs 4-5), and the detection-gap
// breakdown (Fig 6 / anchor A6).
#pragma once

#include <cstdint>
#include <vector>

#include <map>
#include <unordered_set>

#include "common/stats.hpp"
#include "logdiver/coalesce.hpp"
#include "logdiver/correlate.hpp"
#include "logdiver/quarantine.hpp"
#include "logdiver/reconstruct.hpp"

namespace ld {

struct OutcomeRow {
  AppOutcome outcome = AppOutcome::kUnknown;
  std::uint64_t runs = 0;
  double runs_share = 0.0;
  double node_hours = 0.0;
  double node_hours_share = 0.0;
};

struct CategoryRow {
  ErrorCategory category = ErrorCategory::kUnknown;
  std::uint64_t tuples = 0;        // all severities
  std::uint64_t fatal_tuples = 0;
  std::uint64_t raw_events = 0;    // pre-coalescing members
  double fatal_mtbe_hours = 0.0;   // campaign span / fatal tuples
};

struct AttributionRow {
  ErrorCategory cause = ErrorCategory::kUnknown;
  std::uint64_t xe_failures = 0;
  std::uint64_t xk_failures = 0;
};

struct ScalePoint {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  std::uint64_t runs = 0;
  std::uint64_t system_failures = 0;
  ProportionCi failure_probability{};
};

struct MonthlyPoint {
  int year = 0;
  int month = 0;
  std::uint64_t runs = 0;
  std::uint64_t system_failures = 0;
  double node_hours = 0.0;
  double lost_node_hours = 0.0;  // consumed by system-failed runs
  double mtti_hours = 0.0;       // wall hours in month / system failures
};

/// Queue-wait statistics per job-size band (jobs deduplicated from
/// their runs; the wait is Torque submit -> start).
struct QueueWaitRow {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  std::uint64_t jobs = 0;
  double mean_wait_hours = 0.0;
  double p95_wait_hours = 0.0;
};

struct DetectionGapRow {
  NodeType type = NodeType::kXE;
  std::uint64_t system_failures = 0;
  std::uint64_t attributed = 0;    // a tuple explains the failure
  std::uint64_t unattributed = 0;  // cause == kUnknown
  double unattributed_share = 0.0;
};

/// System-service availability derived from system-scope incident
/// windows (overlapping incidents merged before summing downtime).
struct AvailabilityReport {
  std::uint64_t incidents = 0;
  double downtime_hours = 0.0;
  /// 1 - downtime / observed span; 1.0 when no incidents or no span.
  double availability = 1.0;
};

struct MetricsConfig {
  /// Scale buckets for the failure-probability curves.  Empty = defaults
  /// matching the Blue Waters partitions.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> xe_scale_buckets;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> xk_scale_buckets;
};

/// Job-level rollup: the user-facing unit is the batch job; one system
/// kill anywhere in its aprun chain costs the whole submission.
struct JobImpactSummary {
  std::uint64_t jobs = 0;
  std::uint64_t jobs_with_system_failure = 0;
  double fraction = 0.0;
};

struct MetricsReport {
  // Headline (abstract anchors).
  std::uint64_t total_runs = 0;
  double total_node_hours = 0.0;
  double system_failure_fraction = 0.0;    // A2: ~0.0153
  double lost_node_hours_fraction = 0.0;   // A3: ~0.09
  double overall_mtti_hours = 0.0;

  std::vector<OutcomeRow> outcomes;             // Table 3
  std::vector<CategoryRow> categories;          // Table 4
  AvailabilityReport availability;              // Table 4 (service row)
  std::vector<AttributionRow> attribution;      // Table 5
  std::vector<ScalePoint> xe_scale;             // Fig 2
  std::vector<ScalePoint> xk_scale;             // Fig 3
  std::vector<MonthlyPoint> monthly;            // Figs 4-5
  std::vector<DetectionGapRow> detection_gap;   // Fig 6
  std::vector<QueueWaitRow> queue_waits;        // scheduling context
  JobImpactSummary job_impact;                  // job-level rollup
  /// Ingestion health of the pass that produced this report (quarantine,
  /// dedup, watermark and eviction counters); all-zero on clean input.
  /// Filled by the pipeline drivers, not by the accumulator.
  IngestStats ingest;
};

/// Incremental metric accumulation: feed (run, classification) pairs and
/// tuples in any order, read the report whenever needed.  This is what
/// lets the streaming analyzer keep O(aggregates) state instead of
/// retaining every run.  (Queue-wait samples keep one entry per job and
/// the job-dedup set keeps one id per job; everything else is
/// fixed-size.)
///
/// The accumulator is a *mergeable partial aggregate*: every tally is
/// either an exact integer sum (node-time is tracked in node-seconds,
/// not floating node-hours), a min/max, a set union, or a keyed
/// minimum, so MergeFrom is associative and commutative and disjoint
/// shard partials merge to the serial accumulator's exact state —
/// byte-identical codec output, bit-identical Report numbers.
/// Floating point appears only in Report(), computed once from the
/// merged integers.
class MetricsAccumulator {
 public:
  explicit MetricsAccumulator(MetricsConfig config = {});

  void AddRun(const AppRun& run, const ClassifiedRun& cls);
  void AddTuple(const ErrorTuple& tuple);

  /// Folds another accumulator's tallies into this one.  Both sides
  /// must be built with the same config (scale-bucket geometry is
  /// checked).  The canonical fleet merge order is ascending shard
  /// index, but the algebra does not depend on it: sums, min/max, set
  /// unions and the min-apid queue-wait rule are order-free.  Merging
  /// partials whose inputs overlap double-counts; callers own the
  /// disjoint-partition invariant (fleet shards own runs by
  /// `apid % shard_count` and tuples by `id % shard_count`).
  void MergeFrom(const MetricsAccumulator& other);

  /// Snapshot of the metrics over everything accumulated so far.
  MetricsReport Report() const;

  /// The checkpoint codec (snapshot.hpp): every accumulator (scale
  /// buckets, monthly/outcome/category/attribution maps, downtime
  /// intervals, job-dedup sets, queue-wait samples) round-trips
  /// exactly, so a decoded accumulator reports bit-identical numbers.
  /// The config stays construction-time; decoding expects an
  /// accumulator built with the same config.
  template <class Io>
  void Fields(Io& io);

 private:
  /// Internal integer tallies mirroring the report rows; doubles are
  /// derived in Report() so merge order can never perturb a bit.
  struct OutcomeTally {
    std::uint64_t runs = 0;
    std::int64_t node_seconds = 0;
  };
  struct MonthlyTally {
    std::uint64_t runs = 0;
    std::uint64_t system_failures = 0;
    std::int64_t node_seconds = 0;
    std::int64_t lost_node_seconds = 0;
  };
  /// The queue-wait sample a job contributes: from its lowest-apid run
  /// that has a submit->start record.  Keying the winner on apid (not
  /// arrival order) keeps the sample set identical no matter which
  /// shard sees which run first.
  struct WaitSample {
    ApId apid = 0;
    std::uint32_t band = 0;  // kWaitBands index
    Duration wait{0};
  };

  MetricsConfig config_;
  std::uint64_t total_runs_ = 0;
  std::int64_t total_node_seconds_ = 0;
  std::uint64_t system_failures_ = 0;
  std::int64_t lost_node_seconds_ = 0;
  TimePoint span_lo_, span_hi_;
  bool have_span_ = false;
  std::map<AppOutcome, OutcomeTally> outcome_rows_;
  std::map<ErrorCategory, CategoryRow> cat_rows_;
  std::map<ErrorCategory, AttributionRow> attr_rows_;
  std::vector<ScalePoint> xe_scale_;
  std::vector<ScalePoint> xk_scale_;
  std::map<std::pair<int, int>, MonthlyTally> monthly_;
  DetectionGapRow xe_gap_{NodeType::kXE, 0, 0, 0, 0.0};
  DetectionGapRow xk_gap_{NodeType::kXK, 0, 0, 0, 0.0};
  std::uint64_t incidents_ = 0;
  IntervalSet downtime_;
  /// Job-dedup sets are unordered (this is the per-run hot lookup);
  /// The codec writes their ids sorted so snapshot bytes stay
  /// deterministic and match the old ordered-set layout.
  std::unordered_set<JobId> seen_jobs_;
  std::unordered_set<JobId> failed_jobs_;
  /// One queue-wait sample per job, min-apid winner (see WaitSample).
  std::map<JobId, WaitSample> waits_;
};

/// One-shot convenience over MetricsAccumulator.
MetricsReport ComputeMetrics(const std::vector<AppRun>& runs,
                             const std::vector<ClassifiedRun>& classified,
                             const std::vector<ErrorTuple>& tuples,
                             const MetricsConfig& config = {});

/// Default scale buckets.
std::vector<std::pair<std::uint32_t, std::uint32_t>> DefaultXeScaleBuckets();
std::vector<std::pair<std::uint32_t, std::uint32_t>> DefaultXkScaleBuckets();

}  // namespace ld
