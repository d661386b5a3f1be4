#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <tuple>

#include "workload/scheduler.hpp"

namespace ld {
namespace {

// Signals used for application-caused aborts (SIGABRT, SIGSEGV, SIGFPE,
// SIGBUS) and their rough relative frequencies in the field.
struct UserFailureMode {
  int exit_code;
  int signal;
  double weight;
};
constexpr UserFailureMode kUserFailureModes[] = {
    {1, 0, 0.35},    // application returned nonzero
    {2, 0, 0.08},
    {255, 0, 0.12},  // MPI abort convention
    {134, 6, 0.18},  // SIGABRT
    {139, 11, 0.22}, // SIGSEGV
    {136, 8, 0.03},  // SIGFPE
    {135, 7, 0.02},  // SIGBUS
};

constexpr int kSigTerm = 15;

double BucketMeanNodes(const SizeBucket& b) {
  return 0.5 * (static_cast<double>(b.lo) + static_cast<double>(b.hi));
}

}  // namespace

std::vector<SizeBucket> WorkloadConfig::DefaultXeBuckets() {
  // Calibrated so that offered load is ~75% of the XE partition over the
  // campaign and the large-scale tail is thin but non-empty (a few
  // hundred full-machine runs out of 5M), matching the field study's
  // population shape.  Medians grow with scale: full-machine production
  // runs are long "hero" runs — this is what produces the dramatic
  // failure-probability blowup at scale (anchor A4).
  return {
      {1, 1, 0.40, 0.25},
      {2, 8, 0.30, 0.40},
      {9, 64, 0.15, 0.50},
      {65, 512, 0.02, 0.80},
      {513, 2048, 0.002, 1.50},
      {2049, 8192, 0.0007, 2.20},
      // Large-scale *test* runs are short (capability scaling tests),
      // while full-machine hero runs are long production runs; this
      // duration asymmetry is what produces the 20x failure-probability
      // blowup between the 10k and 22k buckets (anchor A4).
      {8193, 16384, 0.00025, 0.10},
      {16385, 22640, 0.00010, 6.00},
  };
}

std::vector<SizeBucket> WorkloadConfig::DefaultXkBuckets() {
  return {
      {1, 1, 0.38, 0.25},
      {2, 8, 0.30, 0.40},
      {9, 64, 0.18, 0.50},
      {65, 256, 0.04, 0.70},
      {257, 1024, 0.01, 0.90},
      {1025, 2048, 0.003, 1.00},
      {2049, 3500, 0.0012, 0.40},
      {3501, 4224, 0.0004, 3.50},
  };
}

WorkloadGenerator::WorkloadGenerator(const Machine& machine,
                                     WorkloadConfig config)
    : machine_(machine), config_(std::move(config)) {
  if (config_.xe_buckets.empty()) {
    config_.xe_buckets = WorkloadConfig::DefaultXeBuckets();
  }
  if (config_.xk_buckets.empty()) {
    config_.xk_buckets = WorkloadConfig::DefaultXkBuckets();
  }
  // Clamp bucket bounds to the machine at hand so small testbeds work
  // with the default mixture.
  auto clamp = [](std::vector<SizeBucket>& buckets, std::uint32_t cap) {
    std::vector<SizeBucket> kept;
    for (SizeBucket b : buckets) {
      if (b.lo > cap) continue;
      b.hi = std::min(b.hi, cap);
      kept.push_back(b);
    }
    buckets = std::move(kept);
  };
  clamp(config_.xe_buckets, machine_.xe_count());
  clamp(config_.xk_buckets, machine_.xk_count());
  LD_CHECK(!config_.xe_buckets.empty() || !config_.xk_buckets.empty(),
           "no feasible size buckets for this machine");
  // Clamp app-mix entries the same way; entries whose partition does not
  // exist on this machine are dropped.
  if (!config_.app_mix.empty()) {
    std::vector<AppMixEntry> kept;
    for (AppMixEntry e : config_.app_mix) {
      const std::uint32_t cap =
          e.xk ? machine_.xk_count() : machine_.xe_count();
      if (e.nodes_lo > cap || cap == 0) continue;
      e.nodes_hi = std::min(e.nodes_hi, cap);
      kept.push_back(e);
    }
    config_.app_mix = std::move(kept);
    LD_CHECK(!config_.app_mix.empty(),
             "no feasible app-mix entries for this machine");
  }
  // Scale-study oversampling of the two largest buckets.
  if (config_.large_bucket_boost != 1.0) {
    for (auto* buckets : {&config_.xe_buckets, &config_.xk_buckets}) {
      const std::size_t n = buckets->size();
      for (std::size_t i = n >= 2 ? n - 2 : 0; i < n; ++i) {
        (*buckets)[i].weight *= config_.large_bucket_boost;
      }
    }
  }
}

double WorkloadGenerator::OfferedUtilization(NodeType type) const {
  const auto& buckets =
      type == NodeType::kXK ? config_.xk_buckets : config_.xe_buckets;
  const double type_fraction = type == NodeType::kXK
                                   ? config_.xk_job_fraction
                                   : 1.0 - config_.xk_job_fraction;
  double wsum = 0.0, load = 0.0;
  for (const SizeBucket& b : buckets) {
    wsum += b.weight;
    // Lognormal mean = median * exp(sigma^2 / 2).
    const double mean_hours =
        b.median_hours *
        std::exp(0.5 * config_.duration_sigma * config_.duration_sigma);
    load += b.weight * BucketMeanNodes(b) * mean_hours;
  }
  if (wsum <= 0.0) return 0.0;
  const double per_app_node_hours = load / wsum;
  const double apps = static_cast<double>(config_.target_app_runs) * type_fraction;
  const double capacity_node_hours =
      static_cast<double>(machine_.nodes_of_type(type).size()) *
      config_.campaign.hours();
  return apps * per_app_node_hours / capacity_node_hours;
}

Result<Workload> WorkloadGenerator::Generate(Rng& rng) const {
  if (config_.target_app_runs == 0) {
    return InvalidArgumentError("target_app_runs must be > 0");
  }
  if (config_.apps_per_job_mean < 1.0) {
    return InvalidArgumentError("apps_per_job_mean must be >= 1");
  }

  Workload wl;
  wl.jobs.reserve(static_cast<std::size_t>(
      static_cast<double>(config_.target_app_runs) / config_.apps_per_job_mean));
  wl.apps.reserve(config_.target_app_runs);

  ZipfSampler user_sampler(config_.user_count, config_.user_zipf_alpha);

  std::vector<double> xe_weights, xk_weights;
  for (const auto& b : config_.xe_buckets) xe_weights.push_back(b.weight);
  for (const auto& b : config_.xk_buckets) xk_weights.push_back(b.weight);
  std::vector<double> mix_weights;
  for (const auto& e : config_.app_mix) mix_weights.push_back(e.weight);

  // Job arrivals: Poisson with the rate that lands target_app_runs over
  // the campaign.  The *effective* chain length is shorter than the
  // geometric mean because a user failure aborts the batch script:
  // app i exists iff the previous i-1 apps continued AND succeeded, so
  // E[len] = (1 - (q*s)^max) / (1 - q*s) with q = continue prob and
  // s = per-app survival prob.
  const double p_extra_app = 1.0 / config_.apps_per_job_mean;  // geometric
  const double qs =
      (1.0 - p_extra_app) * (1.0 - config_.user_failure_prob);
  const double effective_chain =
      qs < 1.0 ? (1.0 - std::pow(qs, config_.max_apps_per_job)) / (1.0 - qs)
               : static_cast<double>(config_.max_apps_per_job);
  const double jobs_target =
      static_cast<double>(config_.target_app_runs) / effective_chain;
  const double arrival_rate =
      jobs_target / static_cast<double>(config_.campaign.seconds());

  // ---- phase 1: plan jobs (arrivals, sizes, chains, walltimes) --------
  struct PlannedApp {
    std::int64_t duration;
    bool user_fail;
    int exit_code;
    int signal;
  };
  struct JobPlan {
    TimePoint submit;
    bool is_xk;
    std::uint32_t nodect;
    std::vector<PlannedApp> apps;
    std::int64_t walltime;
    std::int64_t hold;
    UserId user;
    std::string queue;
    const AppMixEntry* mix = nullptr;  // into config_.app_mix, or null
  };
  std::vector<JobPlan> plans;
  double arrival_clock = 0.0;
  std::uint64_t planned_apps = 0;

  // Diurnal modulation by Poisson thinning: draw arrivals at the peak
  // rate, then accept each with prob lambda(t)/lambda_max.  Amplitude 0
  // takes the unmodulated path with no extra draws.
  const double diurnal_amp = std::clamp(config_.diurnal_amplitude, 0.0, 1.0);
  const double plan_rate = arrival_rate * (1.0 + diurnal_amp);

  while (planned_apps < config_.target_app_runs) {
    arrival_clock += rng.Exponential(plan_rate);
    if (arrival_clock >= static_cast<double>(config_.campaign.seconds())) {
      break;  // campaign window exhausted
    }
    if (diurnal_amp > 0.0) {
      const double hour = std::fmod(arrival_clock / 3600.0, 24.0);
      const double lambda_frac =
          (1.0 + diurnal_amp *
                     std::cos(2.0 * std::numbers::pi *
                              (hour - static_cast<double>(
                                          config_.diurnal_peak_hour)) /
                              24.0)) /
          (1.0 + diurnal_amp);
      if (rng.UniformDouble() >= lambda_frac) continue;
    }
    JobPlan job_plan;
    job_plan.submit =
        config_.epoch + Duration(static_cast<std::int64_t>(arrival_clock));

    bool is_xk;
    double median_hours;
    std::uint32_t nodect;
    if (!config_.app_mix.empty()) {
      const AppMixEntry& entry = config_.app_mix[rng.WeightedIndex(mix_weights)];
      job_plan.mix = &entry;
      is_xk = entry.xk;
      median_hours = entry.median_hours;
      nodect = static_cast<std::uint32_t>(
          rng.UniformInt(static_cast<std::int64_t>(entry.nodes_lo),
                         static_cast<std::int64_t>(entry.nodes_hi)));
    } else {
      is_xk = !xk_weights.empty() &&
              (xe_weights.empty() || rng.Bernoulli(config_.xk_job_fraction));
      const auto& buckets = is_xk ? config_.xk_buckets : config_.xe_buckets;
      const auto& weights = is_xk ? xk_weights : xe_weights;
      const SizeBucket& bucket = buckets[rng.WeightedIndex(weights)];
      median_hours = bucket.median_hours;
      nodect = static_cast<std::uint32_t>(
          rng.UniformInt(static_cast<std::int64_t>(bucket.lo),
                         static_cast<std::int64_t>(bucket.hi)));
    }
    job_plan.is_xk = is_xk;
    job_plan.nodect = nodect;

    // Plan the aprun chain: intended durations, user failures.
    std::uint32_t app_count = 1;
    while (app_count < config_.max_apps_per_job &&
           rng.Bernoulli(1.0 - p_extra_app)) {
      ++app_count;
    }
    const double mu = std::log(median_hours * 3600.0);
    std::int64_t total_runtime = 0;
    for (std::uint32_t i = 0; i < app_count; ++i) {
      double secs = rng.LogNormal(mu, config_.duration_sigma);
      secs = std::clamp(secs, 10.0, 24.0 * 3600.0);
      PlannedApp app{static_cast<std::int64_t>(secs), false, 0, 0};
      if (rng.Bernoulli(config_.user_failure_prob)) {
        app.user_fail = true;
        app.duration = std::max<std::int64_t>(
            5, static_cast<std::int64_t>(
                   static_cast<double>(app.duration) *
                   rng.UniformDouble(0.02, 0.95)));
        std::vector<double> mode_weights;
        for (const auto& m : kUserFailureModes) mode_weights.push_back(m.weight);
        const auto& mode = kUserFailureModes[rng.WeightedIndex(mode_weights)];
        app.exit_code = mode.exit_code;
        app.signal = mode.signal;
      }
      total_runtime += app.duration + 30;  // inter-aprun script time
      job_plan.apps.push_back(app);
      if (app.user_fail) break;  // batch script aborts on failure
    }
    planned_apps += job_plan.apps.size();

    // Walltime limit: normally generous; occasionally undercuts the work.
    if (rng.Bernoulli(config_.walltime_undercut_prob)) {
      job_plan.walltime = std::max<std::int64_t>(
          60, static_cast<std::int64_t>(static_cast<double>(total_runtime) *
                                        rng.UniformDouble(0.40, 0.95)));
    } else {
      job_plan.walltime = static_cast<std::int64_t>(
          static_cast<double>(total_runtime) * rng.UniformDouble(1.10, 3.00));
      job_plan.walltime =
          std::clamp<std::int64_t>(job_plan.walltime, 900, 48 * 3600);
    }
    job_plan.hold = std::min(total_runtime, job_plan.walltime) + 60;
    job_plan.user = static_cast<UserId>(user_sampler.Sample(rng));
    job_plan.queue = nodect <= 8 && rng.Bernoulli(0.08) ? "debug"
                     : rng.Bernoulli(0.15)              ? "high"
                                                        : "normal";
    plans.push_back(std::move(job_plan));
  }

  // ---- phase 2: schedule each partition ---------------------------------
  std::vector<JobRequest> xe_requests, xk_requests;
  std::vector<std::size_t> xe_plan_idx, xk_plan_idx;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    JobRequest request;
    request.arrival = plans[i].submit;
    request.nodect = plans[i].nodect;
    request.hold = Duration(plans[i].hold);
    request.walltime_limit = Duration(plans[i].walltime);
    if (plans[i].is_xk) {
      xk_requests.push_back(request);
      xk_plan_idx.push_back(i);
    } else {
      xe_requests.push_back(request);
      xe_plan_idx.push_back(i);
    }
  }
  std::vector<Placement> placements(plans.size());
  for (const auto& [requests, idx, type] :
       {std::tuple{&xe_requests, &xe_plan_idx, NodeType::kXE},
        std::tuple{&xk_requests, &xk_plan_idx, NodeType::kXK}}) {
    if (requests->empty()) continue;
    auto scheduled = ScheduleJobs(machine_, type, *requests,
                                  config_.scheduler_policy, rng);
    if (!scheduled.ok()) return scheduled.status();
    for (std::size_t k = 0; k < idx->size(); ++k) {
      placements[(*idx)[k]] = std::move((*scheduled)[k]);
    }
  }

  // ---- phase 3: materialize jobs and application runs -------------------
  std::uint64_t next_jobid = 1;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const JobPlan& job_plan = plans[i];
    Job job;
    job.jobid = next_jobid++;
    job.user = job_plan.user;
    char uname[16];
    std::snprintf(uname, sizeof(uname), "u%04u", job.user);
    job.user_name = uname;
    job.queue = job_plan.queue;
    char jname[24];
    if (job_plan.mix != nullptr) {
      std::snprintf(jname, sizeof(jname), "%s_%llu", job_plan.mix->name,
                    static_cast<unsigned long long>(job.jobid % 9973));
      job.lustre_sensitivity = job_plan.mix->lustre_sensitivity;
    } else {
      std::snprintf(jname, sizeof(jname), "run_%c%llu",
                    job_plan.is_xk ? 'k' : 'e',
                    static_cast<unsigned long long>(job.jobid % 9973));
    }
    job.job_name = jname;
    job.node_type = job_plan.is_xk ? NodeType::kXK : NodeType::kXE;
    job.nodes = std::move(placements[i].nodes);
    job.submit = job_plan.submit;
    job.start = placements[i].start;
    job.walltime_limit = Duration(job_plan.walltime);

    // Materialize the chain, truncating at the walltime limit.
    TimePoint cursor = job.start;
    const TimePoint kill_at = job.start + Duration(job_plan.walltime);
    int job_exit = 0;
    for (const PlannedApp& planned : job_plan.apps) {
      if (cursor >= kill_at) break;
      Application app;
      app.apid = 0;  // assigned after global time-sort below
      app.jobid = job.jobid;
      app.seq = static_cast<std::uint32_t>(job.app_indices.size());
      app.start = cursor;
      TimePoint end = cursor + Duration(planned.duration);
      if (end > kill_at) {
        // Scheduler kills the job at the limit; the running aprun dies
        // with SIGTERM.  Torque records Exit_status=271 (256+15).
        app.end = kill_at;
        app.exit_signal = kSigTerm;
        app.exit_code = 128 + kSigTerm;
        app.truth = AppOutcome::kWalltime;
        job_exit = 271;
        wl.apps.push_back(app);
        job.app_indices.push_back(wl.apps.size() - 1);
        cursor = kill_at;
        break;
      }
      app.end = end;
      if (planned.user_fail) {
        app.exit_code = planned.exit_code;
        app.exit_signal = planned.signal;
        app.truth = AppOutcome::kUserFailure;
        job_exit = planned.exit_code;
      } else {
        app.truth = AppOutcome::kSuccess;
      }
      wl.apps.push_back(app);
      job.app_indices.push_back(wl.apps.size() - 1);
      cursor = end + Duration(30);
      if (planned.user_fail) break;
    }
    job.end = cursor;
    job.exit_status = job_exit;
    wl.jobs.push_back(std::move(job));
  }

  // ALPS apids increase monotonically with application start time on the
  // real system; renumber after the fact to match.
  std::vector<std::size_t> order(wl.apps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&wl](std::size_t a, std::size_t b) {
    if (wl.apps[a].start != wl.apps[b].start) {
      return wl.apps[a].start < wl.apps[b].start;
    }
    return a < b;
  });
  ApId next_apid = 100000;  // realistic-looking starting apid
  for (std::size_t idx : order) wl.apps[idx].apid = next_apid++;

  return wl;
}

}  // namespace ld
