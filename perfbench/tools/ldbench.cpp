// ldbench: the benchmark's in-process helper.  run.py drives the shipped
// binaries (logdiver_cli, logdiverd) from outside and calls this tool for
// the parts that need the library:
//
//   ldbench generate <dir> --seed N --apps N --noise-x F --incident-x F
//       Full-machine bundle over the paper's 518-day campaign; the two
//       factors scale the benign-noise and the Lustre/link incident
//       channels of FaultModelConfig.
//   ldbench traffic <bundle> <out> --lines N
//       The first N lines of the bundle merged by claimed time, one
//       "<source> <raw line>" per line: the service workload's traffic.
//   ldbench oracle <traffic> <work> --tenants T [--check <replies>]
//       Replays each tenant's share into an in-process TenantShard.
//       With --check, stops at every applied count a daemon reply named
//       and compares the reports.
//   ldbench svc-load <address> <traffic> --tenants T --conns C --qps R
//                    --replies <out>
//       Closed-loop ingest on C connections plus an open-loop query
//       stream at R per second against a running logdiverd.  Refused
//       or failed requests are counted in "failed", not fatal.
//   ldbench trace <bundle> <work> --threads N --pass K
//       One traced pass: spans around calls into each module.
//
// Every flag shown is required (only --check is optional): run.py holds
// the benchmark's sizing in one place.  Every command prints one JSON
// object of numbers as its last stdout line and exits non-zero when it
// cannot finish (oracle: 1 on a mismatch).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analysis/scoring.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/names.hpp"
#include "common/parallel.hpp"
#include "logdiver/block_reader.hpp"
#include "logdiver/cache/bundle_cache.hpp"
#include "logdiver/export.hpp"
#include "logdiver/fleet/supervisor.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/report.hpp"
#include "logdiver/resume.hpp"
#include "logdiver/service/client.hpp"
#include "logdiver/service/protocol.hpp"
#include "logdiver/service/tenant.hpp"
#include "simlog/emitters.hpp"
#include "simlog/scenario.hpp"
#include "spans.hpp"

namespace {

namespace fs = std::filesystem;
using perfbench::NowNs;
using perfbench::ScopedSpan;
using perfbench::SpanLog;

// ---------------------------------------------------------------------
// Plumbing: arguments, results, failure
// ---------------------------------------------------------------------

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::string Pos(std::size_t i) const {
    if (i >= positional.size()) Fail("missing argument " + std::to_string(i));
    return positional[i];
  }
  std::string Str(const std::string& flag) const {
    const auto it = flags.find(flag);
    if (it == flags.end()) Fail("missing flag " + flag);
    return it->second;
  }
  double Num(const std::string& flag) const {
    const std::string text = Str(flag);
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') Fail("bad number for " + flag + ": " + text);
    return value;
  }

  [[noreturn]] static void Fail(const std::string& why) {
    std::cerr << "ldbench: " << why << "\n";
    std::exit(1);
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      if (i + 1 >= argc) Args::Fail("flag " + arg + " needs a value");
      args.flags[arg] = argv[++i];
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

template <typename T>
T Must(ld::Result<T> result, const std::string& what) {
  if (!result.ok()) Args::Fail(what + ": " + result.status().ToString());
  return std::move(*result);
}

void Must(const ld::Status& status, const std::string& what) {
  if (!status.ok()) Args::Fail(what + ": " + status.ToString());
}

/// Flat name -> number result, printed as one JSON line.
class Numbers {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Print() const {
    std::ostringstream out;
    out.precision(17);
    out << "{";
    bool first = true;
    for (const auto& [name, value] : values_) {
      out << (first ? "" : ", ") << "\"" << name << "\": " << value;
      first = false;
    }
    out << "}";
    std::cout << out.str() << std::endl;
  }

 private:
  std::map<std::string, double> values_;
};

double MsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

double Mb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

/// The machine logdiver_cli and logdiverd build without --small.
ld::Machine FullMachine() {
  ld::ScenarioConfig config;
  config.full_machine = true;
  return ld::MakeMachine(config);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(samples.size()));
  return samples[std::min(rank, samples.size() - 1)];
}

// ---------------------------------------------------------------------
// generate
// ---------------------------------------------------------------------

void WriteFile(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::binary);
  for (const std::string& line : lines) {
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    out.put('\n');
  }
  if (!out.flush()) Args::Fail("cannot write " + path);
}

int Generate(const Args& args) {
  const std::string dir = args.Pos(0);
  ld::ScenarioConfig config;
  config.full_machine = true;
  config.seed = static_cast<std::uint64_t>(args.Num("--seed"));
  config.workload.target_app_runs = static_cast<std::uint64_t>(args.Num("--apps"));
  config.workload.campaign = ld::Duration::Days(518);  // the paper's field study
  const double noise = args.Num("--noise-x");
  const double incidents = args.Num("--incident-x");
  config.faults.corrected_mce_per_day *= noise;
  config.faults.corrected_gpu_per_day *= noise;
  config.faults.link_degrade_per_day *= noise;
  config.faults.lustre_incidents_per_day *= incidents;
  config.faults.link_failures_per_day *= incidents;
  const ld::Machine machine = ld::MakeMachine(config);

  const std::uint64_t t0 = NowNs();
  const ld::Campaign campaign = Must(ld::RunCampaign(machine, config), "campaign");
  const double generate_ms = MsSince(t0);

  const std::uint64_t t1 = NowNs();
  fs::create_directories(dir);
  const ld::EmittedLogs& logs = campaign.logs;
  WriteFile(dir + "/torque.log", logs.torque);
  WriteFile(dir + "/alps.log", logs.alps);
  WriteFile(dir + "/syslog.log", logs.syslog);
  WriteFile(dir + "/hwerr.log", logs.hwerr);
  WriteFile(dir + "/ground_truth.csv",
            ld::RenderGroundTruthCsv(campaign.workload, campaign.injection));
  WriteFile(dir + "/MANIFEST",
            {"seed=" + std::to_string(config.seed),
             "apps=" + std::to_string(campaign.workload.apps.size())});
  const double write_ms = MsSince(t1);

  Numbers out;
  out.Set("generate_s", generate_ms / 1000.0);
  out.Set("write_s", write_ms / 1000.0);
  out.Set("workload_lines", static_cast<double>(logs.torque.size() + logs.alps.size()));
  out.Set("error_lines", static_cast<double>(logs.syslog.size() + logs.hwerr.size()));
  out.Print();
  return 0;
}

// ---------------------------------------------------------------------
// traffic
// ---------------------------------------------------------------------

struct TrafficLine {
  ld::LogSource source;
  std::string line;
};

/// Claimed time per line, the service's rule: the last parseable
/// timestamp of the line's source, carried over lines without one.
/// Syslog years advance when the month wraps backwards.
std::vector<std::pair<ld::TimePoint, std::size_t>> ClaimTimes(
    const std::vector<std::string>& lines, ld::LogSource source, int base_year) {
  std::vector<std::pair<ld::TimePoint, std::size_t>> claimed;
  claimed.reserve(lines.size());
  ld::TorqueParser torque;
  ld::AlpsParser alps;
  ld::HwerrParser hwerr;
  ld::TimePoint carry;
  int year = base_year;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    switch (source) {
      case ld::LogSource::kTorque: {
        auto rec = torque.ParseLine(line);
        if (rec.ok() && rec->has_value()) carry = (*rec)->time;
        break;
      }
      case ld::LogSource::kAlps: {
        auto rec = alps.ParseLine(line);
        if (rec.ok() && rec->has_value()) carry = (*rec)->time;
        break;
      }
      case ld::LogSource::kSyslog: {
        if (line.size() < 15) break;
        auto t = ld::SyslogParser::ParseSyslogTime(line.substr(0, 15), year);
        if (t.ok() && *t < carry - ld::Duration::Days(300)) {
          ++year;
          t = ld::SyslogParser::ParseSyslogTime(line.substr(0, 15), year);
        }
        if (t.ok()) carry = *t;
        break;
      }
      case ld::LogSource::kHwerr: {
        auto rec = hwerr.ParseLine(line);
        if (rec.ok() && rec->has_value()) carry = (*rec)->time;
        break;
      }
    }
    claimed.emplace_back(carry, i);
  }
  return claimed;
}

int Traffic(const Args& args) {
  const std::string bundle = args.Pos(0);
  const std::string out_path = args.Pos(1);
  const auto limit = static_cast<std::size_t>(args.Num("--lines"));
  const int base_year = ld::LogDiverConfig{}.syslog_base_year;

  struct Source {
    ld::LogSource source;
    const char* file;
    std::vector<std::string> lines;
  };
  std::vector<Source> sources = {{ld::LogSource::kTorque, "torque.log", {}},
                                 {ld::LogSource::kAlps, "alps.log", {}},
                                 {ld::LogSource::kSyslog, "syslog.log", {}},
                                 {ld::LogSource::kHwerr, "hwerr.log", {}}};
  struct Keyed {
    ld::TimePoint time;
    std::size_t source;
    std::size_t index;
  };
  std::vector<Keyed> merged;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    sources[s].lines = Must(ld::ReadLines(bundle + "/" + sources[s].file),
                            sources[s].file);
    for (const auto& [time, index] :
         ClaimTimes(sources[s].lines, sources[s].source, base_year)) {
      merged.push_back({time, s, index});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Keyed& a, const Keyed& b) { return a.time < b.time; });
  if (merged.size() > limit) merged.resize(limit);

  std::ofstream out(out_path, std::ios::binary);
  for (const Keyed& k : merged) {
    out << ld::LogSourceName(sources[k.source].source) << ' '
        << sources[k.source].lines[k.index] << '\n';
  }
  if (!out.flush()) Args::Fail("cannot write " + out_path);
  Numbers result;
  result.Set("lines", static_cast<double>(merged.size()));
  result.Print();
  return 0;
}

std::vector<TrafficLine> ReadTraffic(const std::string& path) {
  std::vector<TrafficLine> traffic;
  for (const std::string& raw : Must(ld::ReadLines(path), path)) {
    const std::size_t space = raw.find(' ');
    if (space == std::string::npos) Args::Fail("bad traffic line: " + raw);
    const std::string name = raw.substr(0, space);
    ld::LogSource source = ld::LogSource::kTorque;
    if (name == "alps") {
      source = ld::LogSource::kAlps;
    } else if (name == "syslog") {
      source = ld::LogSource::kSyslog;
    } else if (name == "hwerr") {
      source = ld::LogSource::kHwerr;
    } else if (name != "torque") {
      Args::Fail("bad traffic source: " + name);
    }
    traffic.push_back({source, raw.substr(space + 1)});
  }
  return traffic;
}

std::string TenantId(std::size_t t) {
  char name[32];
  std::snprintf(name, sizeof(name), "tenant-%02zu", t);
  return name;
}

/// The value of `key=` in a protocol reply ("" when absent).
std::string Field(const std::string& reply, const std::string& key) {
  const std::string needle = " " + key + "=";
  const std::size_t pos = reply.find(needle);
  if (pos == std::string::npos) return "";
  const std::size_t start = pos + needle.size();
  return reply.substr(start, reply.find(' ', start) - start);
}

// ---------------------------------------------------------------------
// oracle
// ---------------------------------------------------------------------

/// Reply lines svc-load recorded: "R <tenant> <reply>" for a report
/// answered during ingest, "F <tenant> <reply>" for the final one.
struct RecordedReplies {
  std::map<std::string, std::multimap<std::uint64_t, std::string>> midrun;
  std::map<std::string, std::string> final_reply;
};

RecordedReplies ReadReplies(const std::string& path) {
  RecordedReplies replies;
  for (const std::string& raw : Must(ld::ReadLines(path), path)) {
    if (raw.size() < 4) continue;
    const std::size_t space = raw.find(' ', 2);
    const std::string tenant = raw.substr(2, space - 2);
    const std::string reply = raw.substr(space + 1);
    if (raw[0] == 'F') {
      replies.final_reply[tenant] = reply;
    } else {
      replies.midrun[tenant].emplace(
          std::strtoull(Field(reply, "applied").c_str(), nullptr, 10), reply);
    }
  }
  return replies;
}

int Oracle(const Args& args) {
  const std::vector<TrafficLine> traffic = ReadTraffic(args.Pos(0));
  const std::string work = args.Pos(1);
  const auto tenants = static_cast<std::size_t>(args.Num("--tenants"));
  const std::string check_path =
      args.flags.count("--check") != 0 ? args.Str("--check") : "";
  std::optional<RecordedReplies> recorded;
  if (!check_path.empty()) recorded = ReadReplies(check_path);
  const ld::Machine machine = FullMachine();

  double accept_ns = 0;
  double accepted = 0;
  double drain_ms = 0;
  double journal_bytes = 0;
  double checked = 0;
  double mismatches = 0;
  std::ofstream expected(work + "/expected.txt");
  for (std::size_t t = 0; t < tenants; ++t) {
    const std::string id = TenantId(t);
    const std::string dir = work + "/oracle/" + id;
    fs::remove_all(dir);
    ld::service::TenantShard shard(id, dir, machine, ld::LogDiverConfig{},
                                   ld::service::TenantLimits{});
    Must(shard.Start(), "oracle start");
    std::vector<const TrafficLine*> lines;
    for (std::size_t i = t; i < traffic.size(); i += tenants) {
      lines.push_back(&traffic[i]);
    }
    const std::multimap<std::uint64_t, std::string> none;
    const auto& points = recorded && recorded->midrun.count(id) != 0
                             ? recorded->midrun.at(id)
                             : none;
    auto point = points.begin();
    std::size_t sent = 0;
    const auto ingest_until = [&](std::size_t end) {
      for (; sent < end; ++sent) {
        for (;;) {
          const std::uint64_t t0 = NowNs();
          const std::string reply =
              shard.Ingest(lines[sent]->source, lines[sent]->line);
          const std::string_view verdict = ld::service::ReplyVerdict(reply);
          if (verdict == "OK") {
            accept_ns += static_cast<double>(NowNs() - t0);
            ++accepted;
            break;
          }
          if (verdict != "BUSY") Args::Fail("oracle ingest: " + reply);
          ::usleep(200);
        }
      }
    };
    while (point != points.end()) {
      const std::uint64_t n = point->first;
      if (n > lines.size()) Args::Fail("reply past the traffic: " + point->second);
      ingest_until(n);
      while (shard.applied() < n) std::this_thread::yield();
      const std::string want = shard.QueryReport();
      for (; point != points.end() && point->first == n; ++point) {
        ++checked;
        if (Field(point->second, "fp") != Field(want, "fp") ||
            Field(point->second, "runs") != Field(want, "runs")) {
          ++mismatches;
          std::cerr << id << ": daemon " << point->second << " vs oracle "
                    << want << "\n";
        }
      }
    }
    ingest_until(lines.size());
    const std::uint64_t d0 = NowNs();
    Must(shard.Drain(), "oracle drain");
    drain_ms += MsSince(d0);
    const std::string final_reply = shard.QueryReport();
    expected << id << ' ' << final_reply << '\n';
    if (recorded) {
      ++checked;
      const auto it = recorded->final_reply.find(id);
      if (it == recorded->final_reply.end() || it->second != final_reply) {
        ++mismatches;
        std::cerr << id << ": final daemon "
                  << (it == recorded->final_reply.end() ? "(none)" : it->second)
                  << " vs oracle " << final_reply << "\n";
      }
    }
    shard.Stop();
    std::error_code ec;
    journal_bytes += static_cast<double>(fs::file_size(dir + "/journal.ldj", ec));
    fs::remove_all(dir);
  }
  if (!expected.flush()) Args::Fail("cannot write expected.txt");

  Numbers out;
  out.Set("accept_us", accepted == 0 ? 0 : accept_ns / accepted / 1000.0);
  out.Set("drain_ms", drain_ms);
  out.Set("journal_bytes_per_line",
          traffic.empty() ? 0 : journal_bytes / static_cast<double>(traffic.size()));
  out.Set("checked", checked);
  out.Set("mismatches", mismatches);
  out.Print();
  return mismatches == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// svc-load
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::unique_ptr<ld::service::ServiceClient> Connect(const std::string& address) {
  return Must(ld::service::ServiceClient::Connect(address, 60000),
              "connect " + address);
}

int SvcLoad(const Args& args) {
  const std::string address = args.Pos(0);
  const std::vector<TrafficLine> traffic = ReadTraffic(args.Pos(1));
  const auto tenants = static_cast<std::size_t>(args.Num("--tenants"));
  const auto conns = static_cast<std::size_t>(args.Num("--conns"));
  const double qps = args.Num("--qps");
  const std::string replies_path = args.Str("--replies");
  if (conns == 0 || tenants == 0 || qps <= 0) Args::Fail("bad svc-load sizing");

  auto control = Connect(address);
  std::vector<double> ping_us;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    const std::string reply = Must(control->Send("PING"), "ping");
    if (ld::service::ReplyVerdict(reply) != "OK") Args::Fail("ping: " + reply);
    ping_us.push_back(MicrosBetween(t0, Clock::now()));
  }

  // Closed loop: connection c owns tenants t with t % conns == c and sends
  // their lines in merged order, the next only after the previous ack.
  struct Feeder {
    std::vector<double> latency_us;
    std::uint64_t busy = 0;
    std::uint64_t failed = 0;
    Clock::time_point last_ack;
  };
  std::vector<Feeder> feeders(conns);
  std::atomic<bool> ingest_done{false};
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Feeder& feeder = feeders[c];
      feeder.last_ack = start;
      auto client = Connect(address);
      for (std::size_t i = 0; i < traffic.size(); ++i) {
        const std::size_t tenant = i % tenants;
        if (tenant % conns != c) continue;
        const std::string request = "INGEST " + TenantId(tenant) + " " +
                                    ld::LogSourceName(traffic[i].source) + " " +
                                    traffic[i].line;
        const auto t0 = Clock::now();
        bool ok = false;
        for (int attempt = 0; attempt < 2000 && !ok; ++attempt) {
          auto reply = client->Send(request);
          if (!reply.ok()) break;
          const std::string_view verdict = ld::service::ReplyVerdict(*reply);
          if (verdict == "OK") {
            ok = true;
          } else if (verdict == "BUSY") {
            ++feeder.busy;
            ::usleep(1000);
          } else {
            std::cerr << "ingest: " << *reply << "\n";
            break;
          }
        }
        if (!ok) {
          ++feeder.failed;
          continue;
        }
        feeder.last_ack = Clock::now();
        feeder.latency_us.push_back(MicrosBetween(t0, feeder.last_ack));
      }
    });
  }

  // Open loop: query k is due at start + k / qps whatever the daemon
  // does; its latency runs from when it was due.
  std::vector<double> query_us;
  std::vector<double> late_us;
  std::vector<std::string> report_replies;
  std::uint64_t query_failed = 0;
  std::int64_t max_queue = 0;
  std::thread querier([&] {
    auto client = Connect(address);
    const auto interval = std::chrono::duration<double>(1.0 / qps);
    for (std::uint64_t k = 0; !ingest_done.load(); ++k) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(interval * static_cast<double>(k));
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      const std::string tenant = TenantId((k / 2) % tenants);
      const bool report = k % 2 == 0;
      auto reply = client->Send("QUERY " + tenant + (report ? " report" : " health"));
      const auto done = Clock::now();
      if (!reply.ok() || ld::service::ReplyVerdict(*reply) != "OK") {
        // A tenant not yet admitted answers ERR; only the first lines race.
        if (reply.ok() && reply->find("unknown tenant") != std::string::npos) continue;
        ++query_failed;
        std::cerr << "query: " << (reply.ok() ? *reply : reply.status().ToString()) << "\n";
        continue;
      }
      query_us.push_back(MicrosBetween(due, done));
      late_us.push_back(MicrosBetween(due, sent));
      if (report) {
        report_replies.push_back("R " + tenant + " " + *reply);
      } else {
        max_queue = std::max<std::int64_t>(
            max_queue, std::strtoll(Field(*reply, "queue").c_str(), nullptr, 10));
        if (Field(*reply, "state") != "active") ++query_failed;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  ingest_done = true;
  querier.join();

  Clock::time_point last_ack = start;
  std::vector<double> ingest_us;
  std::uint64_t busy = 0;
  std::uint64_t failed = query_failed;
  for (const Feeder& f : feeders) {
    last_ack = std::max(last_ack, f.last_ack);
    ingest_us.insert(ingest_us.end(), f.latency_us.begin(), f.latency_us.end());
    busy += f.busy;
    failed += f.failed;
  }
  const std::string drained = Must(control->Send("DRAIN"), "drain");
  const double drain_s = MicrosBetween(last_ack, Clock::now()) / 1e6;
  if (ld::service::ReplyVerdict(drained) != "OK") {
    std::cerr << "drain: " << drained << "\n";
    ++failed;
  }

  std::ofstream replies(replies_path);
  for (const std::string& r : report_replies) replies << r << '\n';
  for (std::size_t t = 0; t < tenants; ++t) {
    const std::string reply =
        Must(control->Send("QUERY " + TenantId(t) + " report"), "final report");
    replies << "F " << TenantId(t) << ' ' << reply << '\n';
  }
  if (!replies.flush()) Args::Fail("cannot write " + replies_path);

  const double ingest_s = MicrosBetween(start, last_ack) / 1e6;
  Numbers out;
  out.Set("lines", static_cast<double>(ingest_us.size()));
  out.Set("attempted", static_cast<double>(traffic.size() + query_us.size() +
                                           query_failed + 1));
  out.Set("failed", static_cast<double>(failed));
  out.Set("ingest_s", ingest_s);
  out.Set("ingest_lines_per_s", static_cast<double>(ingest_us.size()) / ingest_s);
  out.Set("ingest_p50_us", Percentile(ingest_us, 0.50));
  out.Set("ingest_p99_us", Percentile(ingest_us, 0.99));
  out.Set("query_samples", static_cast<double>(query_us.size()));
  out.Set("query_p50_us", Percentile(query_us, 0.50));
  out.Set("query_p90_us", Percentile(query_us, 0.90));
  out.Set("query_p99_us", Percentile(query_us, 0.99));
  out.Set("late_p99_us", Percentile(late_us, 0.99));
  out.Set("late_max_us", Percentile(late_us, 1.0));
  out.Set("drain_s", drain_s);
  out.Set("busy_replies", static_cast<double>(busy));
  out.Set("max_queue_depth", static_cast<double>(max_queue));
  out.Set("ping_p50_us", Percentile(ping_us, 0.50));
  out.Print();
  return 0;
}

// ---------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------

/// Sum of a histogram's recorded values (micros) in the obs registry.
double RegistrySum(const char* name) {
  for (const ld::obs::MetricSnapshot& m : ld::obs::Registry::Get().Snapshot()) {
    if (m.name == name) {
      return static_cast<double>(m.type == ld::obs::MetricType::kHistogram ? m.sum
                                                                         : m.count);
    }
  }
  return 0.0;
}

/// Cost of one span (Begin and End) in milliseconds, timed over many
/// spans on a scratch log.
double SpanCostMs() {
  constexpr int kSpans = 20000;
  SpanLog scratch(0);
  const std::uint64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan s(scratch, "correlate.classify_1t");
  }
  return MsSince(t0) / kSpans;
}

int Trace(const Args& args) {
  const std::string bundle = args.Pos(0);
  const std::string work = args.Pos(1);
  const int threads = static_cast<int>(args.Num("--threads"));
  SpanLog log(static_cast<int>(args.Num("--pass")));
  Numbers out;

  ld::LogDiverConfig config;
  config.threads = 1;
  const char* files[ld::kNumLogSources] = {"torque.log", "alps.log", "syslog.log",
                                           "hwerr.log"};
  std::vector<ld::MappedFile> mappings;
  ld::LogSetView views;
  std::vector<std::string_view>* columns[ld::kNumLogSources] = {
      &views.torque, &views.alps, &views.syslog, &views.hwerr};
  double source_mb[ld::kNumLogSources] = {};
  std::optional<ld::Machine> machine;
  ld::AnalysisResult result;

  // Pass section 1: the CLI's batch path at one thread, stage by stage.
  const std::size_t spans_before_batch = log.size();
  {
    ScopedSpan batch(log, "batch");
    {
      ScopedSpan s(log, "machine.build");
      machine.emplace(FullMachine());
    }
    {
      ScopedSpan s(log, "block_reader.load");
      for (std::size_t i = 0; i < ld::kNumLogSources; ++i) {
        ld::MappedFile file =
            Must(ld::MappedFile::Open(bundle + "/" + files[i]), files[i]);
        *columns[i] = ld::SplitLinesParallel(file.data(), nullptr);
        source_mb[i] = Mb(file.size());
        mappings.push_back(std::move(file));
      }
    }
    const ld::LogDiver diver(*machine, config);
    ld::ParsedLogs parsed;
    {
      ScopedSpan s(log, "parse.logs_1t");
      parsed = Must(diver.ParseLogs(views, nullptr), "parse");
    }
    result.torque_stats = parsed.torque_stats;
    result.alps_stats = parsed.alps_stats;
    result.syslog_stats = parsed.syslog_stats;
    result.hwerr_stats = parsed.hwerr_stats;
    {
      ScopedSpan s(log, "coalesce");
      result.tuples = ld::CoalesceEvents(*machine, parsed.errors, config.coalesce,
                                         &result.coalesce_stats);
    }
    {
      ScopedSpan s(log, "reconstruct");
      result.runs = ld::ReconstructRuns(*machine, std::move(parsed.alps),
                                        parsed.torque, &result.reconstruct_stats);
    }
    {
      ScopedSpan s(log, "correlate.classify_1t");
      const ld::Correlator correlator(*machine, config.correlator);
      result.classified = correlator.Classify(result.runs, result.tuples, nullptr);
    }
    {
      ScopedSpan s(log, "metrics.compute");
      result.metrics = ld::ComputeMetrics(result.runs, result.classified,
                                          result.tuples, config.metrics);
    }
    result.ingest.quarantined = parsed.sink.total();
    result.metrics.ingest = result.ingest;
    {
      ScopedSpan s(log, "report.print");
      std::ostringstream text;
      ld::PrintParseSummary(text, result);
      ld::PrintHeadline(text, result.metrics);
      ld::PrintOutcomeBreakdown(text, result.metrics);
      ld::PrintCategoryTable(text, result.metrics);
      ld::PrintAttributionTable(text, result.metrics);
      ld::PrintScaleCurve(text, result.metrics.xe_scale, "XE");
      ld::PrintScaleCurve(text, result.metrics.xk_scale, "XK");
      ld::PrintMonthlySeries(text, result.metrics);
      ld::PrintQueueWaits(text, result.metrics);
      ld::PrintDetectionGap(text, result.metrics);
    }
    {
      ScopedSpan s(log, "export.csv");
      Must(ld::ExportMetricsCsv(result.metrics, work + "/trace_csv"), "export");
    }
    {
      ScopedSpan s(log, "scoring");
      const auto truth =
          Must(ld::LoadGroundTruth(bundle + "/ground_truth.csv"), "truth");
      ld::ScoreClassification(result.runs, result.classified, truth);
    }
  }
  // What tracing adds to that section: its spans times the cost of one.
  out.Set("trace.overhead_ms",
          static_cast<double>(log.size() - spans_before_batch) * SpanCostMs());

  // Section 2: each parser alone, one thread.
  {
    ScopedSpan root(log, "parsers");
    ld::QuarantineSink sink(config.ingest.quarantine);
    {
      ScopedSpan s(log, "torque_parser.parse");
      ld::TorqueParser parser;
      parser.ParseLines(views.torque, &sink, nullptr);
    }
    {
      ScopedSpan s(log, "alps_parser.parse");
      ld::AlpsParser parser;
      parser.ParseLines(views.alps, &sink, nullptr);
    }
    {
      ScopedSpan s(log, "syslog_parser.parse");
      ld::SyslogParser parser(config.syslog_base_year);
      parser.ParseLines(views.syslog, &sink, nullptr);
    }
    {
      ScopedSpan s(log, "hwerr_parser.parse");
      ld::HwerrParser parser;
      parser.ParseLines(views.hwerr, &sink, nullptr);
    }
  }

  // Section 3: the same parse and classify on a pool of N threads.
  ld::ParsedLogs parsed_nt;
  {
    ScopedSpan root(log, "parallel");
    const ld::LogDiver diver(*machine, config);
    ld::ThreadPool pool(threads);
    ld::obs::Registry::Get().Reset();
    {
      ScopedSpan s(log, "parse.logs_nt");
      parsed_nt = Must(diver.ParseLogs(views, &pool), "parse nt");
    }
    out.Set("parallel.pool_wait_ms",
            RegistrySum(ld::obs::names::kPoolWaitMicros) / 1000.0);
    out.Set("parallel.pool_run_ms",
            RegistrySum(ld::obs::names::kPoolRunMicros) / 1000.0);
    {
      ScopedSpan s(log, "correlate.classify_nt");
      const ld::Correlator correlator(*machine, config.correlator);
      correlator.Classify(result.runs, result.tuples, &pool);
    }
  }

  // Section 4: the bundle cache's store and load, step by step.
  {
    ScopedSpan root(log, "cache");
    const std::string dir = work + "/trace_cache";
    fs::remove_all(dir);
    const ld::cache::BundleCache cache(dir);
    ld::cache::CacheKeys keys;
    {
      ScopedSpan s(log, "cache.fingerprint");
      keys = ld::cache::MakeKeys(views, *machine, config);
    }
    std::vector<std::uint8_t> bytes;
    {
      ScopedSpan s(log, "cache.encode");
      bytes = ld::cache::BundleCache::EncodeParsed(parsed_nt);
    }
    {
      ScopedSpan s(log, "cache.store");
      Must(cache.Store(keys, bytes, result), "cache store");
    }
    std::error_code ec;
    out.Set("cache.entry_mb",
            Mb(fs::file_size(cache.BundlePath(keys.input_fingerprint), ec)));
    {
      ScopedSpan s(log, "cache.load");
      const auto entry = Must(cache.Load(keys), "cache load");
      if (!entry.result.has_value()) Args::Fail("cache load: no memoized result");
    }
  }

  // Section 5: the streaming core, then the CLI's snapshotting driver.
  const ld::StreamInputs inputs = ld::StreamInputs::FromBundleDir(bundle);
  {
    ScopedSpan root(log, "stream");
    {
      ScopedSpan s(log, "resume.fingerprint");
      Must(ld::BundlePartitionFingerprint(inputs, 0), "fingerprint");
    }
    ld::StreamingAnalyzer analyzer(*machine, config);
    {
      ScopedSpan s(log, "streaming.replay");
      out.Set("streaming.lines",
              static_cast<double>(Must(ld::ReplayBundle(config, inputs,
                                                        ld::ReplaySchedule{},
                                                        analyzer),
                                       "replay")));
    }
    {
      ScopedSpan s(log, "streaming.finalize");
      analyzer.Finalize();
    }
  }
  {
    ScopedSpan root(log, "resumable");
    ld::ResumeOptions options;
    options.snapshot_dir = work + "/trace_snapshots";
    options.resume = false;
    Must(ld::SnapshotStore(options.snapshot_dir).Clear(), "clear snapshots");
    ld::obs::Registry::Get().Reset();
    Must(ld::RunResumableAnalysis(*machine, config, inputs, options), "resumable");
    out.Set("snapshot.writes", RegistrySum(ld::obs::names::kSnapshotWritesTotal));
    out.Set("snapshot.mb", Mb(static_cast<std::uint64_t>(
                               RegistrySum(ld::obs::names::kSnapshotWriteBytesTotal))));
    out.Set("snapshot.ms", RegistrySum(ld::obs::names::kSnapshotWriteMicros) / 1000.0);
    fs::remove_all(options.snapshot_dir);
  }

  // Section 6: the fleet supervisor, for its merge cost.
  {
    ScopedSpan root(log, "fleet");
    ld::fleet::FleetOptions options;
    options.shard_count = static_cast<std::uint32_t>(threads);
    options.partial_dir = work + "/trace_partials";
    ld::obs::Registry::Get().Reset();
    const ld::fleet::ShardSupervisor supervisor(*machine, config);
    Must(supervisor.Run(inputs, options), "fleet");
    out.Set("fleet.merge_ms", RegistrySum(ld::obs::names::kFleetMergeMicros) / 1000.0);
    fs::remove_all(options.partial_dir);
  }

  // Counts at the same boundaries.
  const char* parser_names[ld::kNumLogSources] = {"torque_parser", "alps_parser",
                                                  "syslog_parser", "hwerr_parser"};
  double total_mb = 0;
  for (std::size_t i = 0; i < ld::kNumLogSources; ++i) {
    const std::string name = parser_names[i];
    out.Set(name + ".parse_ms", log.TotalMs(name + ".parse"));
    out.Set(name + ".lines", static_cast<double>(columns[i]->size()));
    out.Set(name + ".mb", source_mb[i]);
    total_mb += source_mb[i];
  }
  std::uint64_t nids = 0;
  for (const ld::AppRun& run : result.runs) nids += run.nodes.size();
  out.Set("block_reader.load_ms", log.TotalMs("block_reader.load"));
  out.Set("block_reader.mb", total_mb);
  out.Set("machine.build_ms", log.TotalMs("machine.build"));
  out.Set("parse.logs_1t_ms", log.TotalMs("parse.logs_1t"));
  out.Set("parse.logs_nt_ms", log.TotalMs("parse.logs_nt"));
  out.Set("coalesce.ms", log.TotalMs("coalesce"));
  out.Set("coalesce.events", static_cast<double>(result.coalesce_stats.input_events));
  out.Set("coalesce.tuples", static_cast<double>(result.tuples.size()));
  out.Set("reconstruct.ms", log.TotalMs("reconstruct"));
  out.Set("reconstruct.runs", static_cast<double>(result.runs.size()));
  out.Set("reconstruct.nids_per_run",
          result.runs.empty() ? 0
                              : static_cast<double>(nids) /
                                    static_cast<double>(result.runs.size()));
  out.Set("correlate.classify_1t_ms", log.TotalMs("correlate.classify_1t"));
  out.Set("correlate.classify_nt_ms", log.TotalMs("correlate.classify_nt"));
  out.Set("metrics.compute_ms", log.TotalMs("metrics.compute"));
  out.Set("report.print_ms", log.TotalMs("report.print"));
  out.Set("export.csv_ms", log.TotalMs("export.csv"));
  out.Set("scoring.ms", log.TotalMs("scoring"));
  out.Set("batch.spans_ms", log.ChildrenMs("batch"));
  out.Set("cache.fingerprint_ms", log.TotalMs("cache.fingerprint"));
  out.Set("cache.encode_ms", log.TotalMs("cache.encode"));
  out.Set("cache.store_ms", log.TotalMs("cache.store"));
  out.Set("cache.load_ms", log.TotalMs("cache.load"));
  out.Set("resume.fingerprint_ms", log.TotalMs("resume.fingerprint"));
  out.Set("streaming.replay_ms", log.TotalMs("streaming.replay"));
  out.Set("streaming.finalize_ms", log.TotalMs("streaming.finalize"));

  if (!log.WriteJson(work + "/spans.json")) Args::Fail("cannot write spans.json");
  out.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: ldbench generate|traffic|oracle|svc-load|trace ...\n";
    return 2;
  }
  const std::string command = argv[1];
  const Args args = ParseArgs(argc, argv);
  if (command == "generate") return Generate(args);
  if (command == "traffic") return Traffic(args);
  if (command == "oracle") return Oracle(args);
  if (command == "svc-load") return SvcLoad(args);
  if (command == "trace") return Trace(args);
  std::cerr << "ldbench: unknown command " << command << "\n";
  return 2;
}
