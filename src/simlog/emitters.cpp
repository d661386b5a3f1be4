#include "simlog/emitters.hpp"

#include <algorithm>
#include <cstdio>

#include "common/strings.hpp"

namespace ld {
namespace {

/// A line tagged with its timestamp so each source can be sorted into
/// wall-clock order after jitter.
struct TimedLine {
  TimePoint time;
  std::uint64_t tiebreak;
  std::string text;
};

void SortAndStrip(std::vector<TimedLine>& lines, std::vector<std::string>& out) {
  std::sort(lines.begin(), lines.end(),
            [](const TimedLine& a, const TimedLine& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.tiebreak < b.tiebreak;
            });
  out.reserve(lines.size());
  for (auto& line : lines) out.push_back(std::move(line.text));
}

std::string JobIdString(JobId id) { return std::to_string(id) + ".bw"; }

std::string WalltimeField(Duration d) {
  const std::int64_t s = d.seconds();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%02lld:%02lld:%02lld",
                static_cast<long long>(s / 3600),
                static_cast<long long>((s / 60) % 60),
                static_cast<long long>(s % 60));
  return buf;
}

/// The gemini component name for a node: blade prefix + g{pair}, e.g.
/// "c3-4c1s2g0" for nodes 0-1 of the blade, "...g1" for nodes 2-3.
std::string GeminiName(const Cname& cname) {
  return cname.BladePrefix() + "g" + std::to_string(cname.node / 2);
}

}  // namespace

std::string TorqueTimestamp(TimePoint t) {
  const CalendarTime c = ToCalendar(t);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%02d/%02d/%04d %02d:%02d:%02d", c.month,
                c.day, c.year, c.hour, c.minute, c.second);
  return buf;
}

std::string CompressNids(std::vector<NodeIndex> nids) {
  std::sort(nids.begin(), nids.end());
  std::string out;
  std::size_t i = 0;
  while (i < nids.size()) {
    std::size_t j = i;
    while (j + 1 < nids.size() && nids[j + 1] == nids[j] + 1) ++j;
    if (!out.empty()) out += ',';
    out += std::to_string(nids[i]);
    if (j > i) {
      out += '-';
      out += std::to_string(nids[j]);
    }
    i = j + 1;
  }
  return out;
}

std::string RenderTorqueStart(const Job& job) {
  std::string line = TorqueTimestamp(job.start);
  line += ";S;" + JobIdString(job.jobid) + ";";
  line += "user=" + job.user_name + " group=users queue=" + job.queue;
  line += " jobname=" + job.job_name;
  line += " ctime=" + job.submit.ToEpochString();
  line += " qtime=" + job.submit.ToEpochString();
  line += " etime=" + job.submit.ToEpochString();
  line += " start=" + job.start.ToEpochString();
  line += " owner=" + job.user_name + "@bw";
  line += " Resource_List.nodect=" + std::to_string(job.nodect());
  line += " Resource_List.walltime=" + WalltimeField(job.walltime_limit);
  return line;
}

std::string RenderTorqueEnd(const Job& job) {
  std::string line = TorqueTimestamp(job.end);
  line += ";E;" + JobIdString(job.jobid) + ";";
  line += "user=" + job.user_name + " group=users queue=" + job.queue;
  line += " jobname=" + job.job_name;
  line += " ctime=" + job.submit.ToEpochString();
  line += " qtime=" + job.submit.ToEpochString();
  line += " start=" + job.start.ToEpochString();
  line += " end=" + job.end.ToEpochString();
  line += " Exit_status=" + std::to_string(job.exit_status);
  line += " Resource_List.nodect=" + std::to_string(job.nodect());
  line += " Resource_List.walltime=" + WalltimeField(job.walltime_limit);
  line += " resources_used.walltime=" + WalltimeField(job.end - job.start);
  return line;
}

std::string RenderAlpsPlace(const Job& job, const Application& app) {
  std::string line = app.start.ToIso();
  line += " apsched[5]: placeApp apid=" + std::to_string(app.apid);
  line += " jobid=" + std::to_string(job.jobid);
  line += " user=" + job.user_name;
  line += " cmd=" + job.job_name + ".exe";
  line += " nodect=" + std::to_string(job.nodect());
  line += " nids=" + CompressNids(job.nodes);
  return line;
}

std::string RenderAlpsExit(const Application& app) {
  std::string line = app.end.ToIso();
  line += " apsys[5]: apid=" + std::to_string(app.apid);
  line += " exited, status=" + std::to_string(app.exit_code);
  line += " signal=" + std::to_string(app.exit_signal);
  return line;
}

std::string RenderAlpsNodeFailureKill(const Application& app, NodeIndex nid) {
  std::string line = app.end.ToIso();
  line += " apsys[5]: apid=" + std::to_string(app.apid);
  line += " killed, reason=node_failure nid=" + std::to_string(nid);
  return line;
}

std::string RenderSyslogLine(const Machine& machine, const ErrorEvent& event,
                             TimePoint when) {
  const std::string stamp = when.ToSyslog();
  const bool has_node = event.node != kInvalidNode;
  const std::string cname =
      has_node ? machine.node(event.node).cname.ToString() : std::string();

  switch (event.category) {
    case ErrorCategory::kMachineCheck:
      if (event.severity == Severity::kCorrected) {
        return stamp + " " + cname +
               " kernel: [Hardware Error]: Machine check events logged "
               "(corrected)";
      }
      return stamp + " " + cname +
             " kernel: [Hardware Error]: Machine check: Processor context "
             "corrupt";
    case ErrorCategory::kMemoryUE:
      return stamp + " " + cname +
             " kernel: EDAC MC0: UE row 4, channel 1 (uncorrectable memory "
             "error)";
    case ErrorCategory::kGpuDbe:
      return stamp + " " + cname +
             " kernel: NVRM: Xid (0000:02:00): 48, Double Bit ECC Error";
    case ErrorCategory::kGpuXid:
      if (event.severity == Severity::kCorrected) {
        return stamp + " " + cname +
               " kernel: NVRM: Xid (0000:02:00): 63, ECC page retirement";
      }
      return stamp + " " + cname +
             " kernel: NVRM: Xid (0000:02:00): 13, Graphics SM exception";
    case ErrorCategory::kGeminiLink: {
      const std::string gemini =
          has_node ? GeminiName(machine.node(event.node).cname)
                   : std::string("c0-0c0s0g0");
      if (event.severity == Severity::kCorrected) {
        return stamp + " smw netwatch: lane degrade on " + gemini +
               "l12, recovered";
      }
      if (event.severity == Severity::kDegraded) {
        return stamp + " smw netwatch: Gemini LCB " + gemini +
               "l33 failed, failover initiated";
      }
      return stamp + " smw netwatch: Gemini LCB " + gemini +
             "l33 failed, failover unsuccessful";
    }
    case ErrorCategory::kLustre:
      return stamp +
             " sonexion LustreError: 11-0: snx11003-OST0042: operation "
             "ost_write failed: service unavailable";
    case ErrorCategory::kNodeHeartbeat:
      return stamp + " smw node_health: node " + cname +
             " heartbeat fault, marking node down";
    case ErrorCategory::kBladeFault: {
      const std::string blade =
          has_node ? machine.node(event.node).cname.BladePrefix()
                   : std::string("c0-0c0s0");
      return stamp + " smw hwerrd: blade " + blade +
             " voltage fault, powering down blade";
    }
    case ErrorCategory::kKernelSoftware:
      return stamp + " " + cname +
             " kernel: Kernel panic - not syncing: Fatal exception";
    case ErrorCategory::kUnknown:
      break;
  }
  return stamp + " smw ras: unclassified event";
}

std::string RenderSyslogRecovery(const ErrorEvent& event, TimePoint when) {
  (void)event;
  return when.ToSyslog() +
         " sonexion Lustre: snx11003-OST0042: service recovered";
}

std::string RenderHwerrLine(const Machine& machine, const ErrorEvent& event,
                            TimePoint when) {
  // Only hardware-side categories are recorded by the hardware error
  // logger; OS/software and filesystem incidents are not.
  switch (event.category) {
    case ErrorCategory::kMachineCheck:
    case ErrorCategory::kMemoryUE:
    case ErrorCategory::kGpuDbe:
    case ErrorCategory::kGpuXid:
    case ErrorCategory::kBladeFault:
      break;
    default:
      return "";
  }
  const std::string cname = event.node != kInvalidNode
                                ? machine.node(event.node).cname.ToString()
                                : "unknown";
  std::string line = when.ToEpochString();
  line += "|";
  line += ErrorCategoryName(event.category);
  line += "|" + cname + "|";
  line += SeverityName(event.severity);
  line += "|bank=4 status=0x" + std::to_string(event.event_id % 0xffff);
  return line;
}

EmittedLogs EmitLogs(const Machine& machine, const Workload& workload,
                     const InjectionResult& injection,
                     const EmitterConfig& config, Rng& rng) {
  EmittedLogs out;
  Rng jitter_rng = rng.Fork("emit-jitter");
  auto jitter = [&](TimePoint t) {
    if (config.timestamp_jitter_seconds <= 0) return t;
    const std::int64_t j = jitter_rng.UniformInt(
        -static_cast<std::int64_t>(config.timestamp_jitter_seconds),
        static_cast<std::int64_t>(config.timestamp_jitter_seconds));
    return t + Duration(j);
  };

  std::uint64_t seq = 0;

  // --- torque ---
  {
    std::vector<TimedLine> lines;
    lines.reserve(workload.jobs.size() * 2);
    for (const Job& job : workload.jobs) {
      lines.push_back({job.start, seq++, RenderTorqueStart(job)});
      lines.push_back({job.end, seq++, RenderTorqueEnd(job)});
    }
    SortAndStrip(lines, out.torque);
  }

  // --- alps ---
  {
    std::unordered_map<std::uint64_t, NodeIndex> event_node;
    event_node.reserve(injection.events.size());
    for (const ErrorEvent& ev : injection.events) {
      event_node.emplace(ev.event_id, ev.node);
    }
    std::vector<TimedLine> lines;
    lines.reserve(workload.apps.size() * 2);
    for (const Application& app : workload.apps) {
      if (app.cancelled) continue;
      const Job& job = workload.job_of(app);
      lines.push_back({app.start, seq++, RenderAlpsPlace(job, app)});
      if (app.alps_node_failure) {
        // The dead node is recorded in the kill message; recover it from
        // the killing event when known, else use the job's head node.
        NodeIndex nid = job.nodes.front();
        const auto truth = injection.truth.find(app.apid);
        if (truth != injection.truth.end() && truth->second.event_id != 0) {
          const auto hit = event_node.find(truth->second.event_id);
          if (hit != event_node.end() && hit->second != kInvalidNode) {
            nid = hit->second;
          }
        }
        lines.push_back({app.end, seq++, RenderAlpsNodeFailureKill(app, nid)});
      } else {
        lines.push_back({app.end, seq++, RenderAlpsExit(app)});
      }
    }
    SortAndStrip(lines, out.alps);
  }

  // --- syslog + hwerr ---
  {
    std::vector<TimedLine> sys_lines;
    std::vector<TimedLine> hw_lines;
    for (const ErrorEvent& event : injection.events) {
      if (!event.detected) continue;
      const TimePoint when = jitter(event.time);
      sys_lines.push_back({when, seq++, RenderSyslogLine(machine, event, when)});
      if (event.scope == Scope::kSystem && event.outage.seconds() > 0) {
        const TimePoint rec = event.time + event.outage;
        sys_lines.push_back({rec, seq++, RenderSyslogRecovery(event, rec)});
      }
      const TimePoint hw_when = jitter(event.time);
      std::string hw = RenderHwerrLine(machine, event, hw_when);
      if (!hw.empty()) hw_lines.push_back({hw_when, seq++, std::move(hw)});
    }
    SortAndStrip(sys_lines, out.syslog);
    SortAndStrip(hw_lines, out.hwerr);
  }

  return out;
}

std::vector<std::string> RenderGroundTruthCsv(const Workload& workload,
                                              const InjectionResult& injection) {
  std::vector<std::string> lines;
  lines.reserve(workload.apps.size() + 1);
  lines.push_back("apid,outcome,cause,event_id,cause_detected");
  for (const Application& app : workload.apps) {
    if (app.cancelled) continue;
    const auto it = injection.truth.find(app.apid);
    TruthRecord rec;
    if (it != injection.truth.end()) rec = it->second;
    std::string line = std::to_string(app.apid);
    line += ",";
    line += AppOutcomeName(rec.outcome);
    line += ",";
    line += rec.outcome == AppOutcome::kSystemFailure
                ? ErrorCategoryName(rec.cause)
                : "";
    line += ",";
    line += std::to_string(rec.event_id);
    line += ",";
    line += rec.cause_detected ? "1" : "0";
    lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace ld
