#include "logdiver/metrics.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "logdiver/snapshot.hpp"

namespace ld {
namespace {

constexpr AppOutcome kOutcomeOrder[] = {
    AppOutcome::kSuccess, AppOutcome::kUserFailure, AppOutcome::kSystemFailure,
    AppOutcome::kWalltime, AppOutcome::kUnknown};

const std::vector<std::pair<std::uint32_t, std::uint32_t>> kWaitBands = {
    {1, 1}, {2, 8}, {9, 64}, {65, 512}, {513, 4096}, {4097, 1u << 30}};

double SecondsToHours(std::int64_t node_seconds) {
  return static_cast<double>(node_seconds) / 3600.0;
}

}  // namespace

std::vector<std::pair<std::uint32_t, std::uint32_t>> DefaultXeScaleBuckets() {
  return {{1, 1},        {2, 8},        {9, 64},        {65, 512},
          {513, 2048},   {2049, 8192},  {8193, 16384},  {16385, 22640}};
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> DefaultXkScaleBuckets() {
  return {{1, 1},       {2, 8},       {9, 64},      {65, 256},
          {257, 1024},  {1025, 2048}, {2049, 3500}, {3501, 4224}};
}

MetricsAccumulator::MetricsAccumulator(MetricsConfig config)
    : config_(std::move(config)) {
  auto init_scale = [](std::vector<ScalePoint>& points,
                       const std::vector<std::pair<std::uint32_t,
                                                   std::uint32_t>>& buckets) {
    points.clear();
    for (const auto& [lo, hi] : buckets) {
      ScalePoint p;
      p.lo = lo;
      p.hi = hi;
      points.push_back(p);
    }
  };
  init_scale(xe_scale_, config_.xe_scale_buckets.empty()
                            ? DefaultXeScaleBuckets()
                            : config_.xe_scale_buckets);
  init_scale(xk_scale_, config_.xk_scale_buckets.empty()
                            ? DefaultXkScaleBuckets()
                            : config_.xk_scale_buckets);
  // Sized for a realistic campaign's job population; AddRun then never
  // rehashes mid-stream.
  seen_jobs_.reserve(1024);
  failed_jobs_.reserve(256);
}

void MetricsAccumulator::AddRun(const AppRun& run, const ClassifiedRun& cls) {
  ++total_runs_;
  if (!have_span_) {
    span_lo_ = run.start;
    span_hi_ = run.end;
    have_span_ = true;
  } else {
    span_lo_ = std::min(span_lo_, run.start);
    span_hi_ = std::max(span_hi_, run.end);
  }

  // Outcomes + headline.  Node-time is summed in integer node-seconds
  // (lossless: logs are second-granular) so totals are independent of
  // accumulation and merge order.
  OutcomeTally& orow = outcome_rows_[cls.outcome];
  ++orow.runs;
  const std::int64_t ns = run.NodeSeconds();
  orow.node_seconds += ns;
  total_node_seconds_ += ns;
  if (cls.outcome == AppOutcome::kSystemFailure) {
    ++system_failures_;
    lost_node_seconds_ += ns;
  }

  // Scale curves (unknown outcomes excluded).
  if (cls.outcome != AppOutcome::kUnknown) {
    auto& points = run.node_type == NodeType::kXK ? xk_scale_ : xe_scale_;
    for (ScalePoint& p : points) {
      if (run.nodect >= p.lo && run.nodect <= p.hi) {
        ++p.runs;
        if (cls.outcome == AppOutcome::kSystemFailure) ++p.system_failures;
        break;
      }
    }
  }

  // Attribution by partition.
  if (cls.outcome == AppOutcome::kSystemFailure) {
    AttributionRow& arow = attr_rows_[cls.cause];
    arow.cause = cls.cause;
    if (run.node_type == NodeType::kXK) {
      ++arow.xk_failures;
    } else {
      ++arow.xe_failures;
    }
    DetectionGapRow& gap =
        run.node_type == NodeType::kXK ? xk_gap_ : xe_gap_;
    ++gap.system_failures;
    if (cls.cause == ErrorCategory::kUnknown) {
      ++gap.unattributed;
    } else {
      ++gap.attributed;
    }
  }

  // Monthly series.
  const CalendarTime c = ToCalendar(run.end);
  MonthlyTally& mp = monthly_[{c.year, c.month}];
  ++mp.runs;
  mp.node_seconds += ns;
  if (cls.outcome == AppOutcome::kSystemFailure) {
    ++mp.system_failures;
    mp.lost_node_seconds += ns;
  }

  if (cls.outcome == AppOutcome::kSystemFailure) {
    failed_jobs_.insert(run.jobid);
  }

  // Queue waits, once per job: the job's lowest-apid run with a
  // submit->start record wins, so the winner (and hence the sample set)
  // does not depend on the order runs arrive or which shard saw them.
  if (run.job_start >= run.job_submit) {
    seen_jobs_.insert(run.jobid);
    for (std::size_t b = 0; b < kWaitBands.size(); ++b) {
      if (run.nodect >= kWaitBands[b].first &&
          run.nodect <= kWaitBands[b].second) {
        WaitSample sample{run.apid, static_cast<std::uint32_t>(b),
                          run.queue_wait()};
        auto [it, inserted] = waits_.emplace(run.jobid, sample);
        if (!inserted && sample.apid < it->second.apid) it->second = sample;
        break;
      }
    }
  }
}

void MetricsAccumulator::AddTuple(const ErrorTuple& tuple) {
  CategoryRow& row = cat_rows_[tuple.category];
  row.category = tuple.category;
  ++row.tuples;
  row.raw_events += tuple.count;
  if (tuple.severity == Severity::kFatal) ++row.fatal_tuples;

  if (tuple.scope == LocScope::kSystem && tuple.severity == Severity::kFatal) {
    ++incidents_;
    downtime_.Add(tuple.ImpactWindow());
  }
}

MetricsReport MetricsAccumulator::Report() const {
  MetricsReport report;
  report.total_runs = total_runs_;
  const double total_node_hours = SecondsToHours(total_node_seconds_);
  report.total_node_hours = total_node_hours;
  const double span_hours = have_span_ ? (span_hi_ - span_lo_).hours() : 0.0;

  report.outcomes.reserve(outcome_rows_.size());
  report.categories.reserve(cat_rows_.size());
  report.attribution.reserve(attr_rows_.size());
  report.monthly.reserve(monthly_.size());
  report.queue_waits.reserve(kWaitBands.size());
  for (AppOutcome o : kOutcomeOrder) {
    const auto it = outcome_rows_.find(o);
    if (it == outcome_rows_.end()) continue;
    OutcomeRow row;
    row.outcome = o;
    row.runs = it->second.runs;
    row.node_hours = SecondsToHours(it->second.node_seconds);
    row.runs_share = total_runs_ ? static_cast<double>(row.runs) /
                                       static_cast<double>(total_runs_)
                                 : 0.0;
    row.node_hours_share =
        total_node_hours > 0.0 ? row.node_hours / total_node_hours : 0.0;
    report.outcomes.push_back(row);
  }
  report.system_failure_fraction =
      total_runs_ ? static_cast<double>(system_failures_) /
                        static_cast<double>(total_runs_)
                  : 0.0;
  report.lost_node_hours_fraction =
      total_node_seconds_ > 0
          ? static_cast<double>(lost_node_seconds_) /
                static_cast<double>(total_node_seconds_)
          : 0.0;
  report.overall_mtti_hours =
      system_failures_ > 0
          ? span_hours / static_cast<double>(system_failures_)
          : 0.0;

  for (const auto& [cat, row] : cat_rows_) {
    CategoryRow out = row;
    out.fatal_mtbe_hours =
        out.fatal_tuples > 0
            ? span_hours / static_cast<double>(out.fatal_tuples)
            : 0.0;
    report.categories.push_back(out);
  }

  report.availability.incidents = incidents_;
  report.availability.downtime_hours = downtime_.TotalLength().hours();
  if (span_hours > 0.0) {
    report.availability.availability = std::max(
        0.0, 1.0 - report.availability.downtime_hours / span_hours);
  }

  for (const auto& [cat, row] : attr_rows_) report.attribution.push_back(row);
  std::sort(report.attribution.begin(), report.attribution.end(),
            [](const AttributionRow& a, const AttributionRow& b) {
              return a.xe_failures + a.xk_failures >
                     b.xe_failures + b.xk_failures;
            });

  report.xe_scale = xe_scale_;
  report.xk_scale = xk_scale_;
  for (auto* points : {&report.xe_scale, &report.xk_scale}) {
    for (ScalePoint& p : *points) {
      p.failure_probability = WilsonInterval(p.system_failures, p.runs);
    }
  }

  for (const auto& [ym, p] : monthly_) {
    MonthlyPoint out;
    out.year = ym.first;
    out.month = ym.second;
    out.runs = p.runs;
    out.system_failures = p.system_failures;
    out.node_hours = SecondsToHours(p.node_seconds);
    out.lost_node_hours = SecondsToHours(p.lost_node_seconds);
    const TimePoint month_start = TimePoint::FromCalendar(out.year, out.month, 1);
    const TimePoint next =
        out.month == 12 ? TimePoint::FromCalendar(out.year + 1, 1, 1)
                        : TimePoint::FromCalendar(out.year, out.month + 1, 1);
    const double hours = (next - month_start).hours();
    out.mtti_hours = p.system_failures > 0
                         ? hours / static_cast<double>(p.system_failures)
                         : 0.0;
    report.monthly.push_back(out);
  }

  report.detection_gap = {xe_gap_, xk_gap_};
  for (DetectionGapRow& row : report.detection_gap) {
    row.unattributed_share =
        row.system_failures > 0
            ? static_cast<double>(row.unattributed) /
                  static_cast<double>(row.system_failures)
            : 0.0;
  }

  // Regroup the per-job winners into bands.  Iterating the jobid-keyed
  // map gives a canonical order, so the per-band sums and quantile
  // inputs are identical however the samples were accumulated.
  std::vector<std::vector<double>> band_samples(kWaitBands.size());
  for (const auto& [jobid, sample] : waits_) {
    band_samples[sample.band].push_back(sample.wait.hours());
  }
  for (std::size_t b = 0; b < kWaitBands.size(); ++b) {
    const std::vector<double>& samples = band_samples[b];
    if (samples.empty()) continue;
    QueueWaitRow row;
    row.lo = kWaitBands[b].first;
    row.hi = kWaitBands[b].second;
    row.jobs = samples.size();
    double sum = 0.0;
    for (double w : samples) sum += w;
    row.mean_wait_hours = sum / static_cast<double>(samples.size());
    row.p95_wait_hours = Quantile(samples, 0.95);
    report.queue_waits.push_back(row);
  }
  report.job_impact.jobs = seen_jobs_.size();
  report.job_impact.jobs_with_system_failure = failed_jobs_.size();
  report.job_impact.fraction =
      report.job_impact.jobs
          ? static_cast<double>(report.job_impact.jobs_with_system_failure) /
                static_cast<double>(report.job_impact.jobs)
          : 0.0;
  return report;
}

void MetricsAccumulator::MergeFrom(const MetricsAccumulator& other) {
  LD_CHECK(xe_scale_.size() == other.xe_scale_.size() &&
               xk_scale_.size() == other.xk_scale_.size(),
           "MergeFrom requires accumulators with the same scale buckets");

  total_runs_ += other.total_runs_;
  total_node_seconds_ += other.total_node_seconds_;
  system_failures_ += other.system_failures_;
  lost_node_seconds_ += other.lost_node_seconds_;
  if (other.have_span_) {
    if (!have_span_) {
      span_lo_ = other.span_lo_;
      span_hi_ = other.span_hi_;
      have_span_ = true;
    } else {
      span_lo_ = std::min(span_lo_, other.span_lo_);
      span_hi_ = std::max(span_hi_, other.span_hi_);
    }
  }

  for (const auto& [outcome, tally] : other.outcome_rows_) {
    OutcomeTally& mine = outcome_rows_[outcome];
    mine.runs += tally.runs;
    mine.node_seconds += tally.node_seconds;
  }
  for (const auto& [category, row] : other.cat_rows_) {
    CategoryRow& mine = cat_rows_[category];
    mine.category = category;
    mine.tuples += row.tuples;
    mine.fatal_tuples += row.fatal_tuples;
    mine.raw_events += row.raw_events;
  }
  for (const auto& [cause, row] : other.attr_rows_) {
    AttributionRow& mine = attr_rows_[cause];
    mine.cause = cause;
    mine.xe_failures += row.xe_failures;
    mine.xk_failures += row.xk_failures;
  }
  for (auto [mine, theirs] : {std::pair{&xe_scale_, &other.xe_scale_},
                              std::pair{&xk_scale_, &other.xk_scale_}}) {
    for (std::size_t i = 0; i < mine->size(); ++i) {
      LD_CHECK((*mine)[i].lo == (*theirs)[i].lo &&
                   (*mine)[i].hi == (*theirs)[i].hi,
               "MergeFrom requires accumulators with the same scale buckets");
      (*mine)[i].runs += (*theirs)[i].runs;
      (*mine)[i].system_failures += (*theirs)[i].system_failures;
    }
  }
  for (const auto& [ym, tally] : other.monthly_) {
    MonthlyTally& mine = monthly_[ym];
    mine.runs += tally.runs;
    mine.system_failures += tally.system_failures;
    mine.node_seconds += tally.node_seconds;
    mine.lost_node_seconds += tally.lost_node_seconds;
  }
  for (auto [mine, theirs] : {std::pair{&xe_gap_, &other.xe_gap_},
                              std::pair{&xk_gap_, &other.xk_gap_}}) {
    mine->system_failures += theirs->system_failures;
    mine->attributed += theirs->attributed;
    mine->unattributed += theirs->unattributed;
  }
  incidents_ += other.incidents_;
  for (const Interval& iv : other.downtime_.intervals()) downtime_.Add(iv);
  seen_jobs_.insert(other.seen_jobs_.begin(), other.seen_jobs_.end());
  failed_jobs_.insert(other.failed_jobs_.begin(), other.failed_jobs_.end());
  for (const auto& [jobid, sample] : other.waits_) {
    auto [it, inserted] = waits_.emplace(jobid, sample);
    if (!inserted && sample.apid < it->second.apid) it->second = sample;
  }
}

template <class Io>
void MetricsAccumulator::Fields(Io& io) {
  io(total_runs_, total_node_seconds_, system_failures_, lost_node_seconds_,
     span_lo_, span_hi_, have_span_);
  MapSeq<std::uint32_t>(io, outcome_rows_,
                        [](auto& in, auto& outcome, OutcomeTally& row) {
                          in(outcome, row.runs, row.node_seconds);
                        });
  MapSeq<std::uint32_t>(io, cat_rows_,
                        [](auto& in, auto& category, CategoryRow& row) {
                          in(category, row.category, row.tuples,
                             row.fatal_tuples, row.raw_events);
                        });
  MapSeq<std::uint32_t>(io, attr_rows_,
                        [](auto& in, auto& cause, AttributionRow& row) {
                          in(cause, row.cause, row.xe_failures,
                             row.xk_failures);
                        });
  for (auto* scale : {&xe_scale_, &xk_scale_}) {
    Seq<std::uint32_t>(io, *scale, [](auto& in, ScalePoint& p) {
      in(p.lo, p.hi, p.runs, p.system_failures);
    });
  }
  MapSeq<std::uint32_t>(io, monthly_,
                        [](auto& in, auto& ym, MonthlyTally& p) {
                          in(ym.first, ym.second, p.runs, p.system_failures,
                             p.node_seconds, p.lost_node_seconds);
                        });
  for (DetectionGapRow* gap : {&xe_gap_, &xk_gap_}) {
    io(gap->type, gap->system_failures, gap->attributed, gap->unattributed);
  }

  io(incidents_);
  std::vector<Interval> downtime = downtime_.intervals();
  Seq<std::uint32_t>(io, downtime,
                     [](auto& in, Interval& iv) { in(iv.start, iv.end); });
  if constexpr (Io::kReading) {
    downtime_ = IntervalSet();
    for (const Interval& iv : downtime) downtime_.Add(iv);
  }

  // Sorted ids: the sets are unordered in memory, the bytes must not be.
  for (std::unordered_set<JobId>* jobs : {&seen_jobs_, &failed_jobs_}) {
    std::vector<JobId> ids;
    if constexpr (!Io::kReading) {
      ids.assign(jobs->begin(), jobs->end());
      std::sort(ids.begin(), ids.end());
    }
    Seq<std::uint64_t>(io, ids);
    if constexpr (Io::kReading) {
      jobs->clear();
      jobs->insert(ids.begin(), ids.end());
    }
  }

  // Per-job winners in jobid order (the map's iteration order).
  MapSeq<std::uint32_t>(
      io, waits_, []<class In>(In& in, auto& jobid, WaitSample& sample) {
        in(jobid, sample.apid, sample.band, sample.wait);
        if constexpr (In::kReading) {
          if (sample.band >= kWaitBands.size()) {
            in.Fail("queue-wait band out of range");
          }
        }
      });
}

template void MetricsAccumulator::Fields(SnapshotWriter&);
template void MetricsAccumulator::Fields(SnapshotReader&);

MetricsReport ComputeMetrics(const std::vector<AppRun>& runs,
                             const std::vector<ClassifiedRun>& classified,
                             const std::vector<ErrorTuple>& tuples,
                             const MetricsConfig& config) {
  MetricsAccumulator acc(config);
  for (const ClassifiedRun& cls : classified) {
    acc.AddRun(runs[cls.run_index], cls);
  }
  for (const ErrorTuple& tuple : tuples) acc.AddTuple(tuple);
  return acc.Report();
}

}  // namespace ld
