#include "simlog/catalog.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "common/obs/names.hpp"
#include "common/obs/obs.hpp"
#include "logdiver/export.hpp"
#include "logdiver/fleet/supervisor.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/report.hpp"
#include "logdiver/resume.hpp"
#include "workload/appmix.hpp"

namespace ld {
namespace {

// ---------------------------------------------------------------------
// syslog stamp round-trip (the 15-char RFC3164 prefix has no year; the
// campaign epoch anchors reconstruction, exactly like the parser does).

constexpr const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                   "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

bool ParseStamp(const std::string& line, TimePoint epoch, TimePoint* out) {
  if (line.size() < 15) return false;
  int month = 0;
  for (int m = 0; m < 12; ++m) {
    if (line.compare(0, 3, kMonths[m]) == 0) {
      month = m + 1;
      break;
    }
  }
  if (month == 0) return false;
  const auto digit = [&](std::size_t i) { return line[i] - '0'; };
  const int day = (line[4] == ' ' ? 0 : digit(4) * 10) + digit(5);
  const int hour = digit(7) * 10 + digit(8);
  const int minute = digit(10) * 10 + digit(11);
  const int second = digit(13) * 10 + digit(14);
  if (day < 1 || day > 31 || hour > 23 || minute > 59 || second > 59) {
    return false;
  }
  const CalendarTime e = ToCalendar(epoch);
  const int year = month >= e.month ? e.year : e.year + 1;
  *out = TimePoint::FromCalendar(year, month, day, hour, minute, second);
  return true;
}

}  // namespace

std::vector<std::string> SkewSyslogMidnights(
    const std::vector<std::string>& lines, int skew_seconds, TimePoint epoch) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (const std::string& line : lines) {
    TimePoint t;
    if (skew_seconds > 0 && ParseStamp(line, epoch, &t)) {
      const std::int64_t tod =
          ((t.unix_seconds() % 86400) + 86400) % 86400;
      if (tod < skew_seconds) {
        const TimePoint skewed = t - Duration(skew_seconds);
        std::string rewritten = line;
        rewritten.replace(0, 15, skewed.ToSyslog());
        out.push_back(std::move(rewritten));
        continue;
      }
    }
    out.push_back(line);
  }
  return out;
}

std::vector<std::vector<std::string>> SplitSyslogByDays(
    const std::vector<std::string>& lines, TimePoint epoch, int rotate_days) {
  std::vector<std::vector<std::string>> segments(1);
  if (rotate_days <= 0) {
    segments[0] = lines;
    return segments;
  }
  TimePoint boundary = epoch + Duration::Days(rotate_days);
  for (const std::string& line : lines) {
    TimePoint t;
    // Unparseable stamps stay with the current segment (a rotating
    // daemon cuts on wall clock, but our streams are stamp-ordered).
    if (ParseStamp(line, epoch, &t)) {
      while (t >= boundary) {
        segments.emplace_back();
        boundary = boundary + Duration::Days(rotate_days);
      }
    }
    segments.back().push_back(line);
  }
  return segments;
}

namespace {

Status WriteLines(const std::string& path,
                  const std::vector<std::string>& lines) {
  std::ofstream out(path);
  if (!out) return InternalError("cannot write '" + path + "'");
  for (const std::string& line : lines) out << line << '\n';
  return Status::Ok();
}

/// Writes an already-run campaign as a bundle, applying the spec's
/// syslog transforms (skew, then rotation — the cut order a live system
/// would produce).
Status WriteTransformedBundle(const Campaign& campaign,
                              const ScenarioConfig& config,
                              int rotate_days, int skew_seconds,
                              const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return InternalError("cannot create '" + dir + "': " + ec.message());
  LogBundle bundle;
  bundle.dir = dir;

  if (Status s = WriteLines(bundle.torque_path(), campaign.logs.torque);
      !s.ok()) {
    return s;
  }
  if (Status s = WriteLines(bundle.alps_path(), campaign.logs.alps); !s.ok()) {
    return s;
  }
  if (Status s = WriteLines(bundle.hwerr_path(), campaign.logs.hwerr);
      !s.ok()) {
    return s;
  }

  std::vector<std::string> syslog = campaign.logs.syslog;
  if (skew_seconds > 0) {
    syslog = SkewSyslogMidnights(syslog, skew_seconds, config.workload.epoch);
  }
  const auto segments =
      SplitSyslogByDays(syslog, config.workload.epoch, rotate_days);
  // logrotate layout: oldest segment gets the highest suffix, the
  // newest is the bare file.
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    const std::string path =
        bundle.syslog_path() + "." + std::to_string(segments.size() - 1 - i);
    if (Status s = WriteLines(path, segments[i]); !s.ok()) return s;
  }
  if (Status s = WriteLines(bundle.syslog_path(), segments.back()); !s.ok()) {
    return s;
  }

  if (Status s = WriteLines(
          bundle.truth_path(),
          RenderGroundTruthCsv(campaign.workload, campaign.injection));
      !s.ok()) {
    return s;
  }
  std::vector<std::string> manifest;
  manifest.push_back("seed=" + std::to_string(config.seed));
  manifest.push_back("epoch=" + config.workload.epoch.ToIso());
  manifest.push_back("campaign_days=" +
                     std::to_string(config.workload.campaign.days()));
  manifest.push_back("jobs=" + std::to_string(campaign.workload.jobs.size()));
  manifest.push_back("apps=" + std::to_string(campaign.workload.apps.size()));
  manifest.push_back("events=" +
                     std::to_string(campaign.injection.events.size()));
  manifest.push_back("rotate_days=" + std::to_string(rotate_days));
  manifest.push_back("midnight_skew_seconds=" + std::to_string(skew_seconds));
  return WriteLines(bundle.manifest_path(), manifest);
}

// ---------------------------------------------------------------------
// The registered scenarios.  configure() applies on top of
// SmallScenario(seed); validate() checks ground-truth expectations.
// Thresholds are calibrated against the campaign's measured values at
// the default seed/scale with margin; docs/SCENARIOS.md records both.

void ConfigureDetectionGap(ScenarioConfig* config) {
  // One GPU-side fatal in three leaves no RAS line — injected with the
  // exact-count override so the ledger identity is checkable.
  config->faults.gpu_underreport_fraction = 0.35;
  config->workload.xk_job_fraction = 0.30;  // a meaningful hybrid population
  // SmallScenario's month-long testbed yields only a handful of GPU
  // fatals; heat the hybrid hazards so the gap is measured on a pool of
  // tens of events, not single digits.
  config->faults.xk_fatal_per_node_hour = 1e-3;
  config->faults.xk_app_fatal_per_hour = 0.04;
  // A fatal GPU error takes the node out of service: ALPS still records
  // the node loss (so the run is classified a system failure) while the
  // under-reported RAS side leaves no explaining tuple — that pairing is
  // exactly what renders the gap as Fig 6's *unattributed* XK share
  // rather than as silent user-failure misclassification.
  config->faults.node_down_share_gpu = 0.70;
}

std::vector<std::string> ValidateDetectionGap(const ScenarioOutcome& o) {
  std::vector<std::string> v;
  char buf[160];
  const std::uint64_t want = static_cast<std::uint64_t>(
      std::llround(0.35 * static_cast<double>(o.ledger.gpu_fatal_injected)));
  if (o.ledger.gpu_fatal_injected < 10) {
    v.push_back("too few GPU fatal events to measure the gap");
  }
  if (o.ledger.gpu_fatal_undetected != want) {
    std::snprintf(buf, sizeof(buf),
                  "exact-gap identity broken: undetected=%llu want=%llu "
                  "of %llu injected",
                  static_cast<unsigned long long>(o.ledger.gpu_fatal_undetected),
                  static_cast<unsigned long long>(want),
                  static_cast<unsigned long long>(o.ledger.gpu_fatal_injected));
    v.push_back(buf);
  }
  // The gap must surface as the paper's Fig-6 asymmetry: hybrid runs
  // lose attribution much more often than CPU-only runs.
  if (o.ledger.xk_kills >= 10 &&
      o.xk_unattributed_share <= o.xe_unattributed_share) {
    std::snprintf(buf, sizeof(buf),
                  "no XK/XE unattributed asymmetry: xk=%.3f xe=%.3f",
                  o.xk_unattributed_share, o.xe_unattributed_share);
    v.push_back(buf);
  }
  if (o.score.system_recall < 0.80) {
    std::snprintf(buf, sizeof(buf),
                  "system recall collapsed: %.3f (ALPS evidence should "
                  "survive the RAS gap)",
                  o.score.system_recall);
    v.push_back(buf);
  }
  return v;
}

void ConfigureGeminiCascade(ScenarioConfig* config) {
  config->faults.cascade.storms_per_campaign = 6.0;
  config->faults.cascade.torus_radius = 2;
}

std::vector<std::string> ValidateGeminiCascade(const ScenarioOutcome& o) {
  std::vector<std::string> v;
  char buf[160];
  const CategoryTally& gemini =
      o.ledger.by_category[static_cast<std::size_t>(ErrorCategory::kGeminiLink)];
  if (gemini.kills < 5) {
    std::snprintf(buf, sizeof(buf),
                  "cascade storms produced only %llu Gemini kills",
                  static_cast<unsigned long long>(gemini.kills));
    v.push_back(buf);
  }
  // Storm kills present as node losses with a fatal link event on the
  // router: the analyzer should attribute most of them, with bounded
  // spill into other categories.
  const CauseBias* bias = o.BiasFor(ErrorCategory::kGeminiLink);
  if (bias == nullptr) {
    v.push_back("no Gemini attribution row at all");
  } else if (bias->attributed_runs * 2 < bias->injected_kills) {
    std::snprintf(buf, sizeof(buf),
                  "Gemini attribution bias too negative: attributed=%llu "
                  "injected=%llu",
                  static_cast<unsigned long long>(bias->attributed_runs),
                  static_cast<unsigned long long>(bias->injected_kills));
    v.push_back(buf);
  }
  if (o.score.system_recall < 0.80) {
    std::snprintf(buf, sizeof(buf), "system recall %.3f under cascade load",
                  o.score.system_recall);
    v.push_back(buf);
  }
  return v;
}

void ConfigureLustreStorm(ScenarioConfig* config) {
  // ~10 storms x 3-8 incidents each, on top of the steady-state channel
  // (~45 incidents/month): the clustered population has to dominate.
  config->faults.lustre_storm.storms_per_campaign = 10.0;
}

std::vector<std::string> ValidateLustreStorm(const ScenarioOutcome& o) {
  std::vector<std::string> v;
  char buf[160];
  const CategoryTally& lustre =
      o.ledger.by_category[static_cast<std::size_t>(ErrorCategory::kLustre)];
  // SmallScenario's steady-state channel alone lands well under this;
  // the storms must visibly move the population.
  if (lustre.kills < 100) {
    std::snprintf(buf, sizeof(buf), "Lustre kills %llu — storms missing",
                  static_cast<unsigned long long>(lustre.kills));
    v.push_back(buf);
  }
  const CauseBias* bias = o.BiasFor(ErrorCategory::kLustre);
  if (bias == nullptr || bias->attributed_runs * 10 < bias->injected_kills * 7) {
    v.push_back("Lustre attribution under 70% of injected storm kills");
  }
  if (o.score.system_recall < 0.80) {
    std::snprintf(buf, sizeof(buf), "system recall %.3f under storm load",
                  o.score.system_recall);
    v.push_back(buf);
  }
  return v;
}

void ConfigureMaintenanceWindow(ScenarioConfig* config) {
  config->faults.maintenance.windows_per_campaign = 2.0;
  config->faults.maintenance.node_fraction = 0.25;
}

std::vector<std::string> ValidateMaintenanceWindow(const ScenarioOutcome& o) {
  std::vector<std::string> v;
  char buf[160];
  const CategoryTally& heartbeat = o.ledger.by_category[static_cast<std::size_t>(
      ErrorCategory::kNodeHeartbeat)];
  if (heartbeat.kills < 5) {
    std::snprintf(buf, sizeof(buf),
                  "maintenance drains killed only %llu runs",
                  static_cast<unsigned long long>(heartbeat.kills));
    v.push_back(buf);
  }
  // Drain kills are fully detected node losses; the reboot noise burst
  // must not poison precision.
  if (o.score.system_precision < 0.80) {
    std::snprintf(buf, sizeof(buf),
                  "reboot noise poisoned precision: %.3f",
                  o.score.system_precision);
    v.push_back(buf);
  }
  if (o.score.system_recall < 0.80) {
    std::snprintf(buf, sizeof(buf), "system recall %.3f", o.score.system_recall);
    v.push_back(buf);
  }
  return v;
}

void ConfigureRotationSkew(ScenarioConfig* config) {
  // Span a Dec -> Jan midnight so the no-year syslog stamps force a
  // rollover right where the skew reorders lines.
  config->workload.epoch = TimePoint::FromCalendar(2013, 12, 15);
}

std::vector<std::string> ValidateRotationSkew(const ScenarioOutcome& o) {
  std::vector<std::string> v;
  char buf[160];
  if (!o.rotated_matches_whole) {
    v.push_back("rotated bundle diverged from the whole-file bundle");
  }
  if (o.score.scored_runs == 0 || o.score.missing_truth != 0) {
    std::snprintf(buf, sizeof(buf),
                  "scoring broke across the skewed year boundary: "
                  "scored=%llu missing=%llu",
                  static_cast<unsigned long long>(o.score.scored_runs),
                  static_cast<unsigned long long>(o.score.missing_truth));
    v.push_back(buf);
  }
  if (o.score.system_recall < 0.80) {
    std::snprintf(buf, sizeof(buf),
                  "recall %.3f — year reconstruction likely misplaced events",
                  o.score.system_recall);
    v.push_back(buf);
  }
  return v;
}

void ConfigureDiurnalIo(ScenarioConfig* config) {
  config->workload.app_mix = IoHeavyMix();
  config->workload.diurnal_amplitude = 0.6;
  config->workload.diurnal_peak_hour = 14;
  // A slightly longer campaign smooths the hourly arrival histogram.
  config->workload.campaign = Duration::Days(45);
}

std::vector<std::string> ValidateDiurnalIo(const ScenarioOutcome& o) {
  std::vector<std::string> v;
  char buf[160];
  // The undriven arrival histogram shows ~1.7 from binning noise alone;
  // the driven ratio must clear that decisively (measured ~6 at the
  // default seed — see docs/SCENARIOS.md).
  if (o.peak_trough_ratio < 3.0) {
    std::snprintf(buf, sizeof(buf),
                  "diurnal modulation not visible: peak/trough %.2f",
                  o.peak_trough_ratio);
    v.push_back(buf);
  }
  if (o.io_heavy_lustre_kill_rate < 0.0 || o.other_lustre_kill_rate < 0.0) {
    v.push_back("app mix did not produce both sensitivity groups");
  } else if (o.io_heavy_lustre_kill_rate <= o.other_lustre_kill_rate) {
    std::snprintf(buf, sizeof(buf),
                  "I/O-heavy jobs not preferentially killed by Lustre: "
                  "io=%.4f other=%.4f",
                  o.io_heavy_lustre_kill_rate, o.other_lustre_kill_rate);
    v.push_back(buf);
  }
  if (o.score.system_recall < 0.80) {
    std::snprintf(buf, sizeof(buf), "system recall %.3f", o.score.system_recall);
    v.push_back(buf);
  }
  return v;
}

}  // namespace

const CauseBias* ScenarioOutcome::BiasFor(ErrorCategory cause) const {
  for (const CauseBias& b : bias) {
    if (b.cause == cause) return &b;
  }
  return nullptr;
}

const std::vector<ScenarioSpec>& ScenarioCatalog() {
  static const std::vector<ScenarioSpec> catalog = {
      {"detection-gap",
       "Hybrid GPU errors under-reported at an exact, ledger-checkable rate",
       "Sec. VI / Fig. 6 (anchor A6)", ConfigureDetectionGap,
       ValidateDetectionGap},
      {"gemini-cascade",
       "Torus cascade storms: link failures propagating hop by hop",
       "Sec. V-B (interconnect failures)", ConfigureGeminiCascade,
       ValidateGeminiCascade},
      {"lustre-storm",
       "Clustered filesystem incident storms with long outage windows",
       "Sec. V-A (Lustre dominates population failures, anchor A2)",
       ConfigureLustreStorm, ValidateLustreStorm},
      {"maintenance-window",
       "Scheduled drains: mass node-down kills plus reboot log noise",
       "Sec. IV (filtering maintenance events)", ConfigureMaintenanceWindow,
       ValidateMaintenanceWindow},
      {"rotation-skew",
       "Multi-day rotated syslog across a clock-skewed Dec->Jan midnight",
       "Sec. III (log collection realities)", ConfigureRotationSkew,
       ValidateRotationSkew, /*rotate_days=*/7, /*midnight_skew_seconds=*/90},
      {"diurnal-io",
       "Diurnal arrivals over an I/O-heavy application mix",
       "Sec. IV (workload characterization)", ConfigureDiurnalIo,
       ValidateDiurnalIo},
  };
  return catalog;
}

const ScenarioSpec* FindScenario(std::string_view name) {
  for (const ScenarioSpec& spec : ScenarioCatalog()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Result<std::vector<std::string>> DriverParityViolations(
    const Machine& machine, const std::string& bundle_dir,
    const std::string& work_dir, int threads) {
  namespace fs = std::filesystem;
  fs::remove_all(work_dir);
  LogDiverConfig config;
  config.threads = threads;
  const StreamInputs inputs = StreamInputs::FromBundleDir(bundle_dir);
  std::vector<std::pair<std::string, AnalysisSummary>> reports;

  LD_ASSIGN_OR_RETURN(AnalysisResult batch,
                      LogDiver(machine, config).AnalyzeBundle(bundle_dir));
  reports.emplace_back("batch", static_cast<AnalysisSummary&&>(batch));

  ResumeOptions resume;
  resume.snapshot_dir = work_dir + "/snapshots";
  resume.snapshot_interval = 997;  // many snapshots on a small bundle
  for (const bool resumed : {false, true}) {
    resume.resume = resumed;
    LD_ASSIGN_OR_RETURN(ResumableSummary stream,
                        RunResumableAnalysis(machine, config, inputs, resume));
    reports.emplace_back(resumed ? "resumed stream" : "stream",
                         std::move(stream.summary));
  }

  for (const std::uint32_t shards : {1u, 4u}) {
    fleet::FleetOptions options;
    options.shard_count = shards;
    options.partial_dir = work_dir + "/partials-" + std::to_string(shards);
    LD_ASSIGN_OR_RETURN(fleet::FleetSummary fleet,
                        fleet::ShardSupervisor(machine, config)
                            .Run(inputs, options));
    reports.emplace_back("fleet x" + std::to_string(shards),
                         std::move(fleet.summary));
  }

  // Export every report and compare each file, and the parse summary
  // text, to batch's bytes.
  const auto read = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const auto parse_summary = [](const AnalysisSummary& summary) {
    std::ostringstream text;
    PrintParseSummary(text, summary);
    return text.str();
  };
  std::vector<std::string> violations;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const std::string text = parse_summary(reports[i].second);
    if (text != parse_summary(reports[0].second)) {
      violations.push_back(reports[i].first + " parse summary differs:\n" +
                           text);
    }
    const std::string dir = work_dir + "/csv-" + std::to_string(i);
    LD_TRY(ExportMetricsCsv(reports[i].second.metrics, dir).status());
    for (const auto& entry : fs::directory_iterator(work_dir + "/csv-0")) {
      const std::string name = entry.path().filename().string();
      if (read(entry.path()) != read(dir + "/" + name)) {
        violations.push_back(reports[i].first + " " + name +
                             " differs from batch");
      }
    }
  }
  fs::remove_all(work_dir);
  return violations;
}

Result<LogBundle> WriteScenarioBundle(const Machine& machine,
                                      const ScenarioConfig& config,
                                      const ScenarioSpec& spec,
                                      const std::string& dir) {
  auto campaign = RunCampaign(machine, config);
  if (!campaign.ok()) return campaign.status();
  if (Status s = WriteTransformedBundle(*campaign, config, spec.rotate_days,
                                        spec.midnight_skew_seconds, dir);
      !s.ok()) {
    return s;
  }
  LogBundle bundle;
  bundle.dir = dir;
  return bundle;
}

Result<ScenarioOutcome> RunScenario(const ScenarioSpec& spec,
                                    const ScenarioRunOptions& options) {
  const std::uint64_t t0 = obs::NowNanos();

  ScenarioConfig config = SmallScenario(options.seed);
  if (options.app_scale != 1.0) {
    config.workload.target_app_runs = std::max<std::uint64_t>(
        100, static_cast<std::uint64_t>(
                 std::llround(options.app_scale *
                              static_cast<double>(
                                  config.workload.target_app_runs))));
  }
  spec.configure(&config);
  const Machine machine = MakeMachine(config);

  auto campaign = RunCampaign(machine, config);
  if (!campaign.ok()) return campaign.status();

  ScenarioOutcome out;
  out.name = spec.name;
  out.seed = options.seed;
  out.jobs = campaign->workload.jobs.size();
  out.apps = campaign->workload.apps.size();
  out.events = campaign->injection.events.size();
  out.ledger = BuildFaultLedger(campaign->workload, campaign->injection);

  LogDiverConfig diver_config;
  diver_config.threads = options.threads;
  LogDiver diver(machine, diver_config);
  LogSet logs;
  logs.torque = campaign->logs.torque;
  logs.alps = campaign->logs.alps;
  logs.syslog = campaign->logs.syslog;
  logs.hwerr = campaign->logs.hwerr;
  auto analysis = diver.Analyze(logs);
  if (!analysis.ok()) return analysis.status();

  out.score = ScoreClassification(analysis->runs, analysis->classified,
                                  campaign->injection.truth);
  for (const DetectionGapRow& row : analysis->metrics.detection_gap) {
    (row.type == NodeType::kXK ? out.xk_unattributed_share
                               : out.xe_unattributed_share) =
        row.unattributed_share;
  }

  // Attribution bias: injected kills per true cause vs analyzer verdicts.
  std::array<std::uint64_t, kErrorCategoryCount> injected{};
  std::array<std::uint64_t, kErrorCategoryCount> attributed{};
  for (const auto& [apid, rec] : campaign->injection.truth) {
    if (rec.outcome == AppOutcome::kSystemFailure) {
      ++injected[static_cast<std::size_t>(rec.cause)];
    }
  }
  for (const ClassifiedRun& cls : analysis->classified) {
    if (cls.outcome == AppOutcome::kSystemFailure &&
        cls.cause != ErrorCategory::kUnknown) {
      ++attributed[static_cast<std::size_t>(cls.cause)];
    }
  }
  for (int c = 0; c < kErrorCategoryCount; ++c) {
    const auto idx = static_cast<std::size_t>(c);
    if (injected[idx] == 0 && attributed[idx] == 0) continue;
    CauseBias b;
    b.cause = static_cast<ErrorCategory>(c);
    b.injected_kills = injected[idx];
    b.attributed_runs = attributed[idx];
    b.bias = (static_cast<double>(b.attributed_runs) -
              static_cast<double>(b.injected_kills)) /
             static_cast<double>(std::max<std::uint64_t>(1, b.injected_kills));
    out.bias.push_back(b);
  }

  // Diurnal shape: hourly job-arrival histogram over the campaign.
  {
    std::array<std::uint64_t, 24> hours{};
    for (const Job& job : campaign->workload.jobs) {
      const std::int64_t rel = (job.submit - config.workload.epoch).seconds();
      hours[static_cast<std::size_t>((rel / 3600) % 24)] += 1;
    }
    const std::uint64_t peak = *std::max_element(hours.begin(), hours.end());
    const std::uint64_t trough = *std::min_element(hours.begin(), hours.end());
    out.peak_trough_ratio = static_cast<double>(peak) /
                            static_cast<double>(std::max<std::uint64_t>(1, trough));
  }

  // Lustre kill rates by I/O sensitivity group (app-mix scenarios).
  {
    std::uint64_t io_apps = 0, io_kills = 0, other_apps = 0, other_kills = 0;
    for (const Application& app : campaign->workload.apps) {
      if (app.cancelled) continue;
      const bool io_heavy =
          campaign->workload.job_of(app).lustre_sensitivity > 1.5;
      const auto it = campaign->injection.truth.find(app.apid);
      const bool lustre_kill =
          it != campaign->injection.truth.end() &&
          it->second.outcome == AppOutcome::kSystemFailure &&
          it->second.cause == ErrorCategory::kLustre;
      (io_heavy ? io_apps : other_apps) += 1;
      if (lustre_kill) (io_heavy ? io_kills : other_kills) += 1;
    }
    if (io_apps > 0) {
      out.io_heavy_lustre_kill_rate =
          static_cast<double>(io_kills) / static_cast<double>(io_apps);
    }
    if (other_apps > 0) {
      out.other_lustre_kill_rate =
          static_cast<double>(other_kills) / static_cast<double>(other_apps);
    }
  }

  std::string work = options.work_dir;
  if (work.empty()) {
    work = (std::filesystem::temp_directory_path() /
            ("ld_scenario_" + std::string(spec.name) + "_" +
             std::to_string(options.seed)))
               .string();
  }

  // Rotation scenarios: the rotated, skewed bundle must analyze exactly
  // like the same skewed stream as one whole file.
  if (spec.rotate_days > 0 || spec.midnight_skew_seconds > 0) {
    const std::string whole_dir = work + "/whole";
    const std::string rotated_dir = work + "/rotated";
    std::filesystem::remove_all(whole_dir);
    std::filesystem::remove_all(rotated_dir);
    if (Status s = WriteTransformedBundle(*campaign, config, /*rotate_days=*/0,
                                          spec.midnight_skew_seconds,
                                          whole_dir);
        !s.ok()) {
      return s;
    }
    if (Status s = WriteTransformedBundle(*campaign, config, spec.rotate_days,
                                          spec.midnight_skew_seconds,
                                          rotated_dir);
        !s.ok()) {
      return s;
    }
    auto whole = diver.AnalyzeBundle(whole_dir);
    auto rotated = diver.AnalyzeBundle(rotated_dir);
    if (!whole.ok()) return whole.status();
    if (!rotated.ok()) return rotated.status();
    out.rotated_matches_whole =
        whole->runs.size() == rotated->runs.size() &&
        whole->classified.size() == rotated->classified.size() &&
        whole->metrics.system_failure_fraction ==
            rotated->metrics.system_failure_fraction;
    if (out.rotated_matches_whole) {
      for (std::size_t i = 0; i < whole->classified.size(); ++i) {
        if (whole->classified[i].outcome != rotated->classified[i].outcome ||
            whole->classified[i].cause != rotated->classified[i].cause) {
          out.rotated_matches_whole = false;
          break;
        }
      }
    }
    // Score the skewed on-disk analysis — that is the stream the
    // year-reconstruction fix has to survive.
    out.score = ScoreClassification(whole->runs, whole->classified,
                                    campaign->injection.truth);
  }

  out.violations = spec.validate(out);

  // Every driver must export the cell's bundle byte for byte as batch.
  const std::string bundle_dir = work + "/bundle";
  std::filesystem::remove_all(bundle_dir);
  if (Status s = WriteTransformedBundle(*campaign, config, spec.rotate_days,
                                        spec.midnight_skew_seconds,
                                        bundle_dir);
      !s.ok()) {
    return s;
  }
  LD_ASSIGN_OR_RETURN(const std::vector<std::string> parity,
                      DriverParityViolations(machine, bundle_dir,
                                             work + "/parity",
                                             options.threads));
  out.violations.insert(out.violations.end(), parity.begin(), parity.end());
  std::filesystem::remove_all(work);

  LD_OBS_COUNTER_ADD(obs::names::kScenarioRunsTotal, 1);
  LD_OBS_COUNTER_ADD(obs::names::kScenarioAppsTotal, out.apps);
  LD_OBS_COUNTER_ADD(obs::names::kScenarioValidationFailuresTotal,
                     out.violations.size());
  LD_OBS_HIST_RECORD(obs::names::kScenarioRunMicros,
                     (obs::NowNanos() - t0) / 1000);
  return out;
}

}  // namespace ld
