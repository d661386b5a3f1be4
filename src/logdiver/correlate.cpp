#include "logdiver/correlate.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>

#include "common/obs/names.hpp"
#include "common/obs/obs.hpp"
#include "common/parallel.hpp"

namespace ld {
namespace {

constexpr int kSigTerm = 15;

constexpr std::uint32_t kNoTuple = 0xffffffffu;

/// Runs per classification chunk.  Each run is a handful of binary
/// searches, so chunks are kept large enough to amortize task dispatch
/// while still splitting a multi-million-run trace across the pool.
constexpr std::size_t kClassifyChunkRuns = 4096;

/// Spatial index: for each node, the fatal node-scoped tuples that can
/// affect it, plus the system-wide incident list.
///
/// Layout is CSR (one offsets array + one packed index array) rather
/// than a map of per-node vectors: candidate lookup is two array reads
/// and a binary search over a contiguous row, and building it is three
/// linear passes with exactly two allocations.  The eligible tuples are
/// pre-sorted by (first, index) once, so every row and the system list
/// come out time-ordered without any per-row sort.
///
/// Rows and the system list hold indices into the caller's tuple
/// vector, which must outlive the index.
class TupleIndex {
 public:
  TupleIndex(const std::vector<ErrorTuple>& tuples, std::size_t node_count,
             Duration incident_slack)
      : tuples_(tuples) {
    std::vector<std::uint32_t> fatal;
    fatal.reserve(tuples.size());
    for (std::uint32_t i = 0; i < tuples.size(); ++i) {
      if (tuples[i].severity == Severity::kFatal) fatal.push_back(i);
    }
    std::sort(fatal.begin(), fatal.end(),
              [&tuples](std::uint32_t a, std::uint32_t b) {
                if (tuples[a].first != tuples[b].first) {
                  return tuples[a].first < tuples[b].first;
                }
                return a < b;
              });

    // Pass 1: per-node row widths (into offsets_[n + 1]) + system list.
    offsets_.assign(node_count + 1, 0);
    for (std::uint32_t idx : fatal) {
      if (tuples[idx].scope == LocScope::kSystem) {
        system_.push_back(idx);
        continue;
      }
      for (NodeIndex n : tuples[idx].nodes) {
        if (n < node_count) ++offsets_[n + 1];
      }
    }
    // Pass 2: widths -> row start offsets.
    for (std::size_t n = 0; n < node_count; ++n) {
      offsets_[n + 1] += offsets_[n];
    }
    // Pass 3: fill rows; the fill order inherits the (first, index)
    // sort, so each row is already time-ordered.
    entries_.resize(offsets_[node_count]);
    std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (std::uint32_t idx : fatal) {
      if (tuples[idx].scope == LocScope::kSystem) continue;
      for (NodeIndex n : tuples[idx].nodes) {
        if (n < node_count) entries_[cursor[n]++] = idx;
      }
    }

    // System incidents answer "which window covers this death?" with two
    // binary searches: one over start times for the eligible prefix, one
    // over the running max of slack-inflated window ends.  The prefix
    // max is non-decreasing by construction, and the first position
    // where it exceeds the death time is itself a covering incident.
    sys_start_.reserve(system_.size());
    sys_prefix_max_end_.reserve(system_.size());
    for (std::uint32_t idx : system_) {
      const Interval window =
          tuples[idx].ImpactWindow().Inflate(incident_slack);
      sys_start_.push_back(tuples[idx].first.unix_seconds());
      const std::int64_t end = window.end.unix_seconds();
      sys_prefix_max_end_.push_back(
          sys_prefix_max_end_.empty()
              ? end
              : std::max(sys_prefix_max_end_.back(), end));
    }
  }

  /// Fatal tuples touching `node` with first-event time inside
  /// [lo, hi].  Appends indices to `out` in time order.
  void NodeCandidates(NodeIndex node, std::int64_t lo, std::int64_t hi,
                      std::vector<std::uint32_t>& out) const {
    if (static_cast<std::size_t>(node) + 1 >= offsets_.size()) return;
    const std::uint32_t* begin = entries_.data() + offsets_[node];
    const std::uint32_t* end = entries_.data() + offsets_[node + 1];
    const std::uint32_t* it = std::lower_bound(
        begin, end, lo, [this](std::uint32_t idx, std::int64_t v) {
          return tuples_[idx].first.unix_seconds() < v;
        });
    for (; it != end && tuples_[*it].first.unix_seconds() <= hi; ++it) {
      out.push_back(*it);
    }
  }

  /// Earliest system incident whose slack-inflated impact window covers
  /// `death`, or kNoTuple.  `slack` must match the constructor's.
  std::uint32_t FindSystemCause(std::int64_t death,
                                std::int64_t slack) const {
    // Eligible prefix: inflated window start (first - slack) <= death.
    const auto hi =
        std::upper_bound(sys_start_.begin(), sys_start_.end(), death + slack) -
        sys_start_.begin();
    // First position whose running-max window end is past the death.
    const auto it = std::upper_bound(sys_prefix_max_end_.begin(),
                                     sys_prefix_max_end_.begin() + hi, death);
    if (it == sys_prefix_max_end_.begin() + hi) return kNoTuple;
    return system_[it - sys_prefix_max_end_.begin()];
  }

 private:
  const std::vector<ErrorTuple>& tuples_;
  std::vector<std::uint32_t> offsets_;  // node -> row start; size nodes + 1
  std::vector<std::uint32_t> entries_;  // packed tuple indices, row-major
  std::vector<std::uint32_t> system_;   // system incidents by (first, index)
  std::vector<std::int64_t> sys_start_;
  std::vector<std::int64_t> sys_prefix_max_end_;
};

}  // namespace

Correlator::Correlator(const Machine& machine, CorrelatorConfig config)
    : machine_(machine), config_(config) {}

std::vector<ClassifiedRun> Correlator::Classify(
    const std::vector<AppRun>& runs, const std::vector<ErrorTuple>& tuples,
    ThreadPool* pool) const {
  const std::uint64_t start_ns = obs::NowNanos();
  const TupleIndex index(tuples, machine_.node_count(),
                         config_.incident_slack);
  LD_OBS_HIST_RECORD(obs::names::kCorrelateIndexMicros,
                     (obs::NowNanos() - start_ns) / 1000);

  // The widest per-category `before` window bounds the candidate fetch;
  // each candidate is then checked against its own category's window.
  Duration max_before = config_.attribution_before;
  for (const auto& [cat, window] : config_.category_before) {
    max_before = std::max(max_before, window);
  }
  const std::int64_t slack = config_.incident_slack.seconds();

  // Finds the best node-scoped fatal tuple explaining a death at
  // `death` on `nodes`: the closest-in-time candidate whose category
  // window admits it.  `candidates` is caller-provided scratch so a
  // worker classifying a whole chunk reuses one buffer.
  auto find_node_cause =
      [&](std::span<const NodeIndex> nodes, std::int64_t death,
          std::vector<std::uint32_t>& candidates) -> std::uint32_t {
    candidates.clear();
    const std::int64_t lo = death - max_before.seconds();
    const std::int64_t hi = death + config_.attribution_after.seconds();
    for (NodeIndex n : nodes) {
      index.NodeCandidates(n, lo, hi, candidates);
    }
    std::uint32_t best = kNoTuple;
    std::int64_t best_gap = 0;
    for (std::uint32_t idx : candidates) {
      const ErrorTuple& tuple = tuples[idx];
      const std::int64_t first = tuple.first.unix_seconds();
      if (first < death - config_.BeforeWindow(tuple.category).seconds()) {
        continue;
      }
      const std::int64_t gap = std::llabs(first - death);
      if (best == kNoTuple || gap < best_gap) {
        best = idx;
        best_gap = gap;
      }
    }
    return best;
  };

  // Each run's verdict is a pure function of (run, index, config);
  // chunks write disjoint index-ordered slots of `out`, so the result
  // cannot depend on thread count or scheduling.
  auto classify_run = [&](std::uint32_t i,
                          std::vector<std::uint32_t>& candidates) {
    const AppRun& run = runs[i];
    ClassifiedRun cls;
    cls.run_index = i;

    const auto attribute = [&](std::uint32_t cause) {
      if (cause != kNoTuple) {
        cls.cause = tuples[cause].category;
        cls.tuple_id = tuples[cause].id;
      }
    };

    if (!run.has_termination) {
      cls.outcome = AppOutcome::kUnknown;
      return cls;
    }
    if (run.exit_code == 0 && run.exit_signal == 0) {
      cls.outcome = AppOutcome::kSuccess;
      return cls;
    }
    const std::int64_t death = run.end.unix_seconds();
    if (run.killed_node_failure) {
      // ALPS observed the node loss: definitively system-caused.  Root
      // cause comes from correlation; search the failed node first.
      cls.outcome = AppOutcome::kSystemFailure;
      std::uint32_t cause =
          run.failed_nid != kInvalidNode
              ? find_node_cause(std::span<const NodeIndex>(&run.failed_nid, 1),
                                death, candidates)
              : kNoTuple;
      if (cause == kNoTuple) {
        cause = find_node_cause(run.nodes, death, candidates);
      }
      if (cause == kNoTuple) {
        cause = index.FindSystemCause(death, slack);
      }
      attribute(cause);
      return cls;
    }
    // Walltime: the job hit its limit and the run died by SIGTERM at
    // (or right before) job_start + limit.
    const std::int64_t limit = run.walltime_limit.seconds();
    if (limit > 0 && run.exit_signal == kSigTerm) {
      const std::int64_t used = death - run.job_start.unix_seconds();
      if (used + config_.walltime_tolerance.seconds() >= limit) {
        cls.outcome = AppOutcome::kWalltime;
        return cls;
      }
    }
    // Abnormal exit: blame a system error only with log evidence.
    std::uint32_t cause = find_node_cause(run.nodes, death, candidates);
    if (cause == kNoTuple) {
      cause = index.FindSystemCause(death, slack);
    }
    if (cause != kNoTuple) {
      cls.outcome = AppOutcome::kSystemFailure;
      attribute(cause);
    } else {
      cls.outcome = AppOutcome::kUserFailure;
    }
    return cls;
  };

  std::vector<ClassifiedRun> out(runs.size());
  const std::vector<IndexRange> chunks =
      ChunkRanges(runs.size(), kClassifyChunkRuns);
  ParallelFor(pool, chunks.size(), [&](std::size_t c) {
    LD_OBS_SPAN("classify/chunk");
    std::vector<std::uint32_t> candidates;  // reused across the chunk
    const IndexRange range = chunks[c];
    for (std::size_t i = range.begin; i < range.end; ++i) {
      out[i] = classify_run(static_cast<std::uint32_t>(i), candidates);
    }
  });
  LD_OBS_COUNTER_ADD(obs::names::kCorrelateRunsTotal, runs.size());
  LD_OBS_COUNTER_ADD(obs::names::kCorrelateChunksTotal, chunks.size());
  LD_OBS_HIST_RECORD(obs::names::kCorrelateTotalMicros,
                     (obs::NowNanos() - start_ns) / 1000);
  return out;
}

}  // namespace ld
