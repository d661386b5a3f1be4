// Multi-tenant service tests: wire protocol, the write-ahead journal's
// torn-tail handling, per-tenant crash recovery (bit-identical to an
// uninterrupted run), daemon admission/backpressure/shed semantics, and
// the watchdog's stalled-shard recycle.  The full overload/fault sweep
// with hundreds of tenants lives in bench/service_campaign (ctest
// label `service`).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/crashpoint.hpp"
#include "common/rng.hpp"
#include "common/sockio.hpp"
#include "faults/corruptor.hpp"
#include "logdiver/claims.hpp"
#include "logdiver/service/daemon.hpp"
#include "logdiver/service/journal.hpp"
#include "logdiver/service/protocol.hpp"
#include "logdiver/service/tenant.hpp"
#include "simlog/scenario.hpp"

namespace ld::service {
namespace {

// --------------------------------------------------------------------
// Line framing
// --------------------------------------------------------------------

TEST(LineChannelTest, StripsCrlfFraming) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload =
      "PING\r\nINGEST t torque a \r mid-line stays\r\ntail";
  ASSERT_EQ(::send(fds[0], payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));
  ::shutdown(fds[0], SHUT_WR);
  LineChannel channel(fds[1]);
  auto line = channel.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(**line, "PING");
  line = channel.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(**line, "INGEST t torque a \r mid-line stays");
  line = channel.ReadLine();  // unterminated EOF tail, no \r to strip
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(**line, "tail");
  line = channel.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_FALSE(line->has_value());
  ::close(fds[0]);
}

// --------------------------------------------------------------------
// Protocol grammar
// --------------------------------------------------------------------

TEST(ProtocolTest, ParsesIngest) {
  auto req = ParseRequest("INGEST acme syslog Apr  1 00:00:01 nid00001 up");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->kind, RequestKind::kIngest);
  EXPECT_EQ(req->tenant, "acme");
  EXPECT_EQ(req->source, LogSource::kSyslog);
  EXPECT_EQ(req->line, "Apr  1 00:00:01 nid00001 up");
}

TEST(ProtocolTest, IngestPreservesLineVerbatim) {
  // Raw log lines contain runs of spaces; only the three header tokens
  // are split, the rest passes through byte-for-byte.
  auto req = ParseRequest("INGEST t torque  leading  and   inner");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->line, " leading  and   inner");
}

TEST(ProtocolTest, ParsesQueryKinds) {
  for (const auto& [word, kind] :
       {std::pair<std::string, QueryKind>{"report", QueryKind::kReport},
        {"ingest", QueryKind::kIngest},
        {"health", QueryKind::kHealth}}) {
    auto req = ParseRequest("QUERY t1 " + word);
    ASSERT_TRUE(req.ok()) << word;
    EXPECT_EQ(req->kind, RequestKind::kQuery);
    EXPECT_EQ(req->query, kind);
  }
  EXPECT_FALSE(ParseRequest("QUERY t1 bogus").ok());
}

TEST(ProtocolTest, ParsesAdminVerbs) {
  EXPECT_EQ(ParseRequest("PING")->kind, RequestKind::kPing);
  EXPECT_EQ(ParseRequest("SNAPSHOT")->kind, RequestKind::kSnapshot);
  EXPECT_EQ(ParseRequest("DRAIN")->kind, RequestKind::kDrain);
  auto fault = ParseRequest("FAULT t1 slow 10 25 7");
  ASSERT_TRUE(fault.ok());
  EXPECT_EQ(fault->fault, FaultKind::kSlow);
  EXPECT_EQ(fault->fault_after, 10u);
  EXPECT_EQ(fault->fault_mean_ms, 25u);
  EXPECT_EQ(fault->fault_seed, 7u);
}

TEST(ProtocolTest, RejectsBadTenantIds) {
  // Tenant ids become directory names; the charset is the validation.
  EXPECT_TRUE(ValidTenantId("acme-prod_2.1"));
  EXPECT_FALSE(ValidTenantId(""));
  EXPECT_FALSE(ValidTenantId("."));
  EXPECT_FALSE(ValidTenantId(".."));
  EXPECT_FALSE(ValidTenantId("a/b"));
  EXPECT_FALSE(ValidTenantId(std::string(65, 'x')));
  EXPECT_FALSE(ParseRequest("INGEST ../evil torque x").ok());
}

TEST(ProtocolTest, ReplyVerdicts) {
  EXPECT_EQ(ReplyVerdict(OkReply("5")), "OK");
  EXPECT_EQ(ReplyVerdict(BusyReply(20, "queue full")), "BUSY");
  EXPECT_EQ(ReplyVerdict(ShedReply(250, "over budget")), "SHED");
  EXPECT_EQ(ReplyVerdict(ErrReply("nope")), "ERR");
  EXPECT_EQ(BusyReply(20, "queue full"), "BUSY 20 queue full");
}

// --------------------------------------------------------------------
// Slow-fault delay schedule (FAULT slow)
// --------------------------------------------------------------------

TEST(DelayPointTest, BoundedAndDeterministic) {
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t ms = DelayForBoundary(i, /*mean_ms=*/10, /*seed=*/3);
    EXPECT_GE(ms, 5u);
    EXPECT_LE(ms, 15u);
    EXPECT_EQ(ms, DelayForBoundary(i, 10, 3)) << "not deterministic at " << i;
  }
  // Different seeds must produce different schedules somewhere.
  bool differs = false;
  for (std::uint64_t i = 0; i < 200 && !differs; ++i) {
    differs = DelayForBoundary(i, 10, 3) != DelayForBoundary(i, 10, 4);
  }
  EXPECT_TRUE(differs);
  EXPECT_GE(DelayForBoundary(7, /*mean_ms=*/0, /*seed=*/1), 1u);
}

// --------------------------------------------------------------------
// Journal
// --------------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class JournalTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) const {
    return testing::TempDir() + "svc_journal_" + name + "_" +
           std::to_string(::getpid());
  }
};

TEST_F(JournalTest, AppendReplayRoundTrip) {
  const std::string path = Path("roundtrip");
  std::filesystem::remove(path);
  TenantJournal j;
  ASSERT_TRUE(j.Open(path).ok());
  auto first = j.Append(LogSource::kTorque, "line one");
  ASSERT_TRUE(first.ok());
  auto second = j.Append(LogSource::kSyslog, "line  two ");
  ASSERT_TRUE(second.ok());
  j.Close();

  std::vector<JournalRecord> records;
  auto end = TenantJournal::Replay(
      path, 0, [&](const JournalRecord& r) { records.push_back(r); });
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_EQ(*end, *second);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].source, LogSource::kTorque);
  EXPECT_EQ(records[0].line, "line one");
  EXPECT_EQ(records[0].end_offset, *first);
  EXPECT_EQ(records[1].source, LogSource::kSyslog);
  EXPECT_EQ(records[1].line, "line  two ");  // spaces survive verbatim

  // Replaying from the first record's end offset yields only the tail.
  records.clear();
  end = TenantJournal::Replay(
      path, *first, [&](const JournalRecord& r) { records.push_back(r); });
  ASSERT_TRUE(end.ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].line, "line  two ");
  std::filesystem::remove(path);
}

TEST_F(JournalTest, TornTailIsDetectedAndCut) {
  const std::string path = Path("torn");
  std::filesystem::remove(path);
  TenantJournal j;
  ASSERT_TRUE(j.Open(path).ok());
  auto first = j.Append(LogSource::kAlps, "whole record");
  ASSERT_TRUE(first.ok());
  j.Close();
  {
    // A crash mid-write leaves an unterminated final record.
    std::ofstream torn(path, std::ios::app | std::ios::binary);
    torn << "s 99 half a reco";  // no trailing newline
  }
  std::size_t replayed = 0;
  auto end = TenantJournal::Replay(path, 0,
                                   [&](const JournalRecord&) { ++replayed; });
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(*end, *first);  // valid data ends where the whole record did
  EXPECT_EQ(replayed, 1u);
  ASSERT_TRUE(TenantJournal::TruncateTo(path, *end).ok());
  EXPECT_EQ(std::filesystem::file_size(path), *first);
  std::filesystem::remove(path);
}

TEST_F(JournalTest, RecordBytesArePinned) {
  const std::string path = Path("bytes");
  std::filesystem::remove(path);
  TenantJournal j;
  ASSERT_TRUE(j.Open(path).ok());
  EXPECT_EQ(j.size(), 7u);  // a new journal starts with its version record
  auto end = j.Append(LogSource::kHwerr, "1365000000|machine_check| x");
  ASSERT_TRUE(end.ok());
  j.Close();
  const std::string want = "#ldj 2\nh 1365000000|machine_check| x\n";
  EXPECT_EQ(ReadFile(path), want);
  EXPECT_EQ(*end, want.size());
  // Reopening an existing journal appends; the version record is not
  // written twice.
  ASSERT_TRUE(j.Open(path).ok());
  EXPECT_EQ(j.size(), want.size());
  j.Close();
  EXPECT_EQ(ReadFile(path), want);
  std::filesystem::remove(path);
}

TEST_F(JournalTest, TornVersionRecordReplaysNothing) {
  const std::string path = Path("torn_head");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "#ld";  // a crash inside the very first write
  }
  auto end = TenantJournal::Replay(path, 0,
                                   [](const JournalRecord&) { FAIL(); });
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_EQ(*end, 0u);  // cut to nothing; Open writes a whole one
  std::filesystem::remove(path);
}

TEST_F(JournalTest, MissingFileReplaysNothing) {
  auto end = TenantJournal::Replay(Path("absent"), 0,
                                   [](const JournalRecord&) { FAIL(); });
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(*end, 0u);
}

TEST_F(JournalTest, OffsetPastEofIsRefused) {
  const std::string path = Path("pasteof");
  std::filesystem::remove(path);
  TenantJournal j;
  ASSERT_TRUE(j.Open(path).ok());
  ASSERT_TRUE(j.Append(LogSource::kTorque, "x").ok());
  j.Close();
  // A snapshot pointing past the journal means the journal lost acked
  // data — recovery must fail loudly, not silently resume.
  EXPECT_FALSE(
      TenantJournal::Replay(path, 10000, [](const JournalRecord&) {}).ok());
  std::filesystem::remove(path);
}

// --------------------------------------------------------------------
// Tenant shard: ingest, recovery, budget
// --------------------------------------------------------------------

/// Campaign lines merged in claimed-time order (claims.hpp) — the
/// tailer's-eye view a service client would replay, shared by every
/// shard test.
struct TimedLine {
  TimePoint time;
  LogSource source;
  std::string line;
};

/// A LoadLatest decoder that keeps a copy of the accepted payload.
auto CopyInto(std::vector<std::uint8_t>& out) {
  return [&out](std::span<const std::uint8_t> bytes) {
    out.assign(bytes.begin(), bytes.end());
    return Status::Ok();
  };
}

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config = SmallScenario(707);
    config.workload.target_app_runs = 120;
    machine_ = new Machine(MakeMachine(config));
    auto campaign = RunCampaign(*machine_, config);
    ASSERT_TRUE(campaign.ok());
    LogSet logs;
    logs.torque = std::move(campaign->logs.torque);
    logs.alps = std::move(campaign->logs.alps);
    logs.syslog = std::move(campaign->logs.syslog);
    logs.hwerr = std::move(campaign->logs.hwerr);
    lines_ = new std::vector<TimedLine>(Merge(logs));
    ASSERT_GT(lines_->size(), 500u);

    // The same campaign damaged by every LogCorruptor operator, so
    // malformed Torque/ALPS/hwerr lines sit on both sides of a snapshot
    // cut and claim a carried time (resume_test's DamagedReplayTest
    // settings: short reorder and skew distances).
    CorruptorConfig corrupt;
    corrupt.rate = 0.05;
    corrupt.ops = LogCorruptor::AllOps();
    corrupt.max_reorder_distance = 3;
    corrupt.max_skew_seconds = 60;
    const CorruptionLedger ledger =
        LogCorruptor(corrupt).CorruptBundle(logs, Rng(707).Fork("corruptor"));
    ASSERT_GT(ledger.total(CorruptionOp::kGarble), 0u);
    damaged_lines_ = new std::vector<TimedLine>(Merge(logs));
  }

  static void TearDownTestSuite() {
    delete damaged_lines_;
    delete lines_;
    delete machine_;
    damaged_lines_ = nullptr;
    lines_ = nullptr;
    machine_ = nullptr;
  }

  static std::vector<TimedLine> Merge(const LogSet& logs) {
    const LogSetView views(logs);
    ClaimedTracker tracker(LogDiverConfig{}.syslog_base_year);
    std::vector<TimedLine> merged;
    for (std::size_t s = 0; s < kNumLogSources; ++s) {
      const auto source = static_cast<LogSource>(s);
      for (const std::string_view line : views.lines(source)) {
        merged.push_back({tracker.ParseAndClaim(source, line).claimed, source,
                          std::string(line)});
      }
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const TimedLine& a, const TimedLine& b) {
                       return a.time < b.time;
                     });
    return merged;
  }

  std::string Dir(const std::string& name) const {
    const std::string dir = testing::TempDir() + "svc_test_" + name + "_" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
  }

  /// Feeds lines [begin, end) of `lines` (default: the clean campaign)
  /// into the shard, absorbing backpressure the way a well-behaved
  /// client does.
  static void Feed(TenantShard& shard, std::size_t begin, std::size_t end,
                   const std::vector<TimedLine>* lines = lines_) {
    for (std::size_t i = begin; i < end && i < lines->size(); ++i) {
      const TimedLine& item = (*lines)[i];
      std::string reply;
      for (int attempt = 0; attempt < 1000; ++attempt) {
        reply = shard.Ingest(item.source, item.line);
        if (ReplyVerdict(reply) != "BUSY") break;
        ::usleep(1000);
      }
      ASSERT_EQ(ReplyVerdict(reply), "OK") << "line " << i << ": " << reply;
    }
  }

  /// Journal bytes in the layout before the version record, which
  /// carried each line's claimed time.
  static std::string OldLayoutJournal() {
    std::string bytes;
    for (std::size_t i = 0; i < 50; ++i) {
      const TimedLine& item = (*lines_)[i];
      bytes += std::string(1, LogSourceName(item.source)[0]) + " " +
               std::to_string(item.time.unix_seconds()) + " " + item.line +
               "\n";
    }
    return bytes + "t 1364775002 torn tail, never acknowledged";
  }

  static Machine* machine_;
  static std::vector<TimedLine>* lines_;
  static std::vector<TimedLine>* damaged_lines_;
};

Machine* ServiceTest::machine_ = nullptr;
std::vector<TimedLine>* ServiceTest::lines_ = nullptr;
std::vector<TimedLine>* ServiceTest::damaged_lines_ = nullptr;

TEST_F(ServiceTest, ShardIngestAndReportBasics) {
  const std::string dir = Dir("basics");
  TenantShard shard("acme", dir, *machine_, LogDiverConfig{}, TenantLimits{});
  std::uint64_t recovered = 99;
  ASSERT_TRUE(shard.Start(&recovered).ok());
  EXPECT_EQ(recovered, 0u);  // fresh directory, nothing to replay
  Feed(shard, 0, 400);
  EXPECT_EQ(shard.accepted(), 400u);
  ASSERT_TRUE(shard.Drain().ok());
  EXPECT_EQ(shard.applied(), 400u);
  const std::string report = shard.QueryReport();
  EXPECT_EQ(ReplyVerdict(report), "OK");
  EXPECT_NE(report.find("applied=400"), std::string::npos) << report;
  const std::string health = shard.QueryHealth();
  EXPECT_NE(health.find("state=active"), std::string::npos) << health;
  shard.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(ServiceTest, RecoveryIsBitIdenticalToUninterruptedRun) {
  const auto malformed = [](const TimedLine& item) {
    return (item.source == LogSource::kTorque &&
            !TorqueParser::Parse(item.line).ok()) ||
           (item.source == LogSource::kAlps &&
            !AlpsParser::Parse(item.line).ok());
  };
  // The clean campaign, and a damaged copy whose malformed heads claim
  // carried times on both sides of the snapshot cut.
  for (const std::vector<TimedLine>* input : {lines_, damaged_lines_}) {
    SCOPED_TRACE(input == lines_ ? "clean input" : "damaged input");
    const std::size_t n = std::min<std::size_t>(input->size(), 1500);
    // Cut the damaged input just before a malformed Torque/ALPS line:
    // the first line recovery replays then claims the carry the
    // snapshot restored.  The watermark advances on every line, so
    // every claim shows in the replies.
    std::size_t cut = n / 2;
    if (input == damaged_lines_) {
      while (cut < n && !malformed((*input)[cut])) ++cut;
      ASSERT_LT(cut, n);
    }
    TenantLimits limits;
    limits.schedule.advance_every = 1;

    // Reference: one shard, never interrupted.
    const std::string ref_dir = Dir("recovery_ref");
    std::string ref_report, ref_ingest;
    {
      TenantShard ref("acme", ref_dir, *machine_, LogDiverConfig{}, limits);
      ASSERT_TRUE(ref.Start().ok());
      Feed(ref, 0, n, input);
      ASSERT_TRUE(ref.Drain().ok());
      ref_report = ref.QueryReport();
      ref_ingest = ref.QueryIngest();
      ref.Stop();
    }

    // Interrupted: snapshot mid-stream, accept the rest, then come back
    // WITHOUT a final snapshot — recovery must replay the journal suffix.
    const std::string dir = Dir("recovery_cut");
    limits.snapshot_interval_lines = 0;  // only explicit snapshots
    limits.snapshot_interval_bytes = 0;
    {
      TenantShard shard("acme", dir, *machine_, LogDiverConfig{}, limits);
      ASSERT_TRUE(shard.Start().ok());
      Feed(shard, 0, cut, input);
      ASSERT_TRUE(shard.Drain().ok());  // snapshot at the cut
      Feed(shard, cut, n, input);
      shard.Stop();  // applies the queue but takes no snapshot
    }
    {
      TenantShard shard("acme", dir, *machine_, LogDiverConfig{}, limits);
      std::uint64_t recovered = 0;
      ASSERT_TRUE(shard.Start(&recovered).ok());
      EXPECT_GT(recovered, 0u);  // the suffix really was replayed
      EXPECT_EQ(shard.accepted(), n);
      ASSERT_TRUE(shard.Drain().ok());
      EXPECT_EQ(shard.QueryReport(), ref_report);
      EXPECT_EQ(shard.QueryIngest(), ref_ingest);
      shard.Stop();
    }
    std::filesystem::remove_all(ref_dir);
    std::filesystem::remove_all(dir);
  }
}

TEST_F(ServiceTest, OldLayoutJournalIsRefusedAndLeftUntouched) {
  // A journal in the layout before the version record, which carried
  // each line's claimed time: Start must refuse it, naming the layout,
  // and must neither replay nor truncate it — with or without a
  // snapshot beside it.
  const std::string old_bytes = OldLayoutJournal();
  for (const bool with_snapshot : {false, true}) {
    SCOPED_TRACE(with_snapshot ? "with snapshot" : "journal only");
    const std::string dir = Dir("old_layout");
    if (with_snapshot) {
      TenantShard shard("acme", dir, *machine_, LogDiverConfig{},
                        TenantLimits{});
      ASSERT_TRUE(shard.Start().ok());
      Feed(shard, 0, 50);
      ASSERT_TRUE(shard.Drain().ok());  // writes a snapshot
      shard.Stop();
      ASSERT_FALSE(std::filesystem::is_empty(dir + "/snapshots"));
    } else {
      std::filesystem::create_directories(dir);
    }
    {
      std::ofstream out(dir + "/journal.ldj",
                        std::ios::binary | std::ios::trunc);
      out << old_bytes;
    }
    TenantShard shard("acme", dir, *machine_, LogDiverConfig{},
                      TenantLimits{});
    const Status status = shard.Start();
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << status.ToString();
    EXPECT_NE(status.message().find("<s> <claimed_unix> <raw line>"),
              std::string::npos)
        << status.ToString();
    EXPECT_EQ(ReadFile(dir + "/journal.ldj"), old_bytes);
    std::filesystem::remove_all(dir);
  }
}

TEST_F(ServiceTest, RecoveryCutsTornJournalTail) {
  const std::string dir = Dir("torn_tail");
  const std::uint64_t kAccepted = 200;
  {
    TenantShard shard("acme", dir, *machine_, LogDiverConfig{},
                      TenantLimits{});
    ASSERT_TRUE(shard.Start().ok());
    Feed(shard, 0, kAccepted);
    ASSERT_TRUE(shard.Drain().ok());
    shard.Stop();
  }
  {
    // kill -9 mid-append: an unterminated record after the acked data.
    std::ofstream torn(dir + "/journal.ldj", std::ios::app | std::ios::binary);
    torn << "t 1364775002 half a rec";
  }
  TenantShard shard("acme", dir, *machine_, LogDiverConfig{}, TenantLimits{});
  ASSERT_TRUE(shard.Start().ok());
  EXPECT_EQ(shard.accepted(), kAccepted);  // the torn line was never acked
  Feed(shard, kAccepted, kAccepted + 10);  // and appends still work after
  ASSERT_TRUE(shard.Drain().ok());
  EXPECT_EQ(shard.applied(), kAccepted + 10);
  shard.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(ServiceTest, ForeignSnapshotIsRejectedAtStart) {
  // Another tenant's snapshot landing in this directory must not be
  // restored: the tenant fingerprint gates LoadLatest.
  const std::string dir = Dir("foreign");
  {
    TenantShard other("intruder", dir, *machine_, LogDiverConfig{},
                      TenantLimits{});
    ASSERT_TRUE(other.Start().ok());
    Feed(other, 0, 50);
    ASSERT_TRUE(other.Drain().ok());
    other.Stop();
  }
  std::filesystem::remove(dir + "/journal.ldj");
  TenantShard shard("acme", dir, *machine_, LogDiverConfig{}, TenantLimits{});
  std::uint64_t recovered = 0;
  ASSERT_TRUE(shard.Start(&recovered).ok());
  EXPECT_EQ(shard.accepted(), 0u);  // started fresh, not from the snapshot
  shard.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(ServiceTest, TenantSnapshotPayloadBytesArePinned) {
  // CRC-32 and size of the snapshot a drained tenant writes after a
  // fixed stream: the tenant layout must not move a byte while its
  // version stays.
  const std::pair<LogSource, const char*> lines[] = {
      {LogSource::kTorque,
       "04/01/2013 00:05:00;S;5001.bw;user=pin queue=normal jobname=j "
       "ctime=1364774600 start=1364774700 Resource_List.nodect=2"},
      {LogSource::kAlps,
       "2013-04-01T00:05:00 apsched[5]: placeApp apid=601 jobid=5001 "
       "user=pin cmd=c nodect=2 nids=0-1"},
      {LogSource::kHwerr, "1364775300|memory_ue|c0-0c0s0n0|fatal|row=4"},
      {LogSource::kAlps,
       "2013-04-01T00:16:00 apsys[5]: apid=601 killed, "
       "reason=node_failure nid=0"},
      {LogSource::kSyslog,
       "Apr  1 00:17:00 sonexion LustreError: ost12 failing over"},
      {LogSource::kAlps, "complete garbage line"},
      {LogSource::kTorque,
       "04/01/2013 00:20:00;E;5001.bw;user=pin queue=normal jobname=j "
       "ctime=1364774600 start=1364774700 end=1364775600 Exit_status=271 "
       "Resource_List.nodect=2"},
  };
  const std::string dir = Dir("pinned");
  {
    TenantShard shard("acme", dir, *machine_, LogDiverConfig{},
                      TenantLimits{});
    ASSERT_TRUE(shard.Start().ok());
    for (const auto& [source, line] : lines) {
      ASSERT_EQ(ReplyVerdict(shard.Ingest(source, line)), "OK") << line;
    }
    ASSERT_TRUE(shard.Drain().ok());
    shard.Stop();
  }
  SnapshotStore store(dir + "/snapshots");
  std::vector<std::uint8_t> payload;
  auto loaded = store.LoadLatest(TenantShard::TenantFingerprint("acme"),
                                 CopyInto(payload));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(payload.size(), 1534u);
  EXPECT_EQ(Crc32(payload), 3448125328u);
  std::filesystem::remove_all(dir);
}

TEST_F(ServiceTest, StaleAnalyzerStateInTenantSnapshotIsRejected) {
  // A tenant snapshot nests the analyzer state, so the analyzer's layout
  // version gates it too: a v4 payload (job records with a job name)
  // fails Start loudly instead of being misread.
  const std::string dir = Dir("stale_analyzer");
  {
    TenantShard shard("acme", dir, *machine_, LogDiverConfig{},
                      TenantLimits{});
    ASSERT_TRUE(shard.Start().ok());
    Feed(shard, 0, 50);
    ASSERT_TRUE(shard.Drain().ok());
    shard.Stop();
  }
  const std::uint64_t fingerprint = TenantShard::TenantFingerprint("acme");
  SnapshotStore store(dir + "/snapshots");
  std::vector<std::uint8_t> payload;
  auto loaded = store.LoadLatest(fingerprint, CopyInto(payload));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Tenant version u32, tenant id (u32 length + "acme"), applied u64,
  // journal offset u64, four claim carries (i64): then the analyzer's
  // own u32 layout version.
  const std::size_t analyzer_version_at = 4 + 4 + 4 + 8 + 8 + 4 * 8;
  const std::uint32_t stale_version = 4;
  std::memcpy(payload.data() + analyzer_version_at, &stale_version,
              sizeof(stale_version));
  ASSERT_TRUE(store.Write(payload, fingerprint).ok());

  TenantShard shard("acme", dir, *machine_, LogDiverConfig{}, TenantLimits{});
  const Status status = shard.Start();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_NE(status.message().find("stream-state version 4"), std::string::npos)
      << status.ToString();
  std::filesystem::remove_all(dir);
}

TEST_F(ServiceTest, OverBudgetTenantIsShedThenRecovers) {
  const std::string dir = Dir("shed");
  TenantLimits limits;
  limits.budget.policy = DegradationPolicy::kFailFast;
  limits.budget.window_lines = 32;
  limits.budget.min_malformed = 4;
  limits.budget.max_malformed_fraction = 0.1;
  limits.budget.cooloff_ms = 100;
  TenantShard shard("dirty", dir, *machine_, LogDiverConfig{}, limits);
  ASSERT_TRUE(shard.Start().ok());

  // Flood with garbage; once a full window evaluates over budget the
  // shard sheds with an explicit retry-after, never a silent drop.
  std::string reply;
  bool shed = false;
  for (int i = 0; i < 2000 && !shed; ++i) {
    reply = shard.Ingest(LogSource::kTorque, "not a torque line at all");
    const auto verdict = ReplyVerdict(reply);
    if (verdict == "SHED") {
      shed = true;
    } else if (verdict == "BUSY") {
      ::usleep(1000);
    } else {
      ASSERT_EQ(verdict, "OK") << reply;
    }
    // The worker judges windows as it applies; let it close one before
    // the flood runs out.
    if (i % 32 == 31) ::usleep(2000);
  }
  ASSERT_TRUE(shed) << "never shed; last reply: " << reply;
  EXPECT_EQ(shard.state(), TenantState::kShedding);
  EXPECT_NE(shard.QueryHealth().find("state=shedding"), std::string::npos);

  // After the cooloff the tenant probes again — clean traffic passes.
  ::usleep(150 * 1000);
  for (int attempt = 0; attempt < 100; ++attempt) {
    reply = shard.Ingest(LogSource::kSyslog, (*lines_)[0].line);
    if (ReplyVerdict(reply) == "OK") break;
    ::usleep(10 * 1000);
  }
  EXPECT_EQ(ReplyVerdict(reply), "OK") << reply;
  shard.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(ServiceTest, DegradePolicyKeepsInjestingButFlagsHealth) {
  const std::string dir = Dir("degrade");
  TenantLimits limits;
  limits.budget.policy = DegradationPolicy::kQuarantineAndContinue;
  limits.budget.window_lines = 32;
  limits.budget.min_malformed = 4;
  limits.budget.max_malformed_fraction = 0.1;
  TenantShard shard("grubby", dir, *machine_, LogDiverConfig{}, limits);
  ASSERT_TRUE(shard.Start().ok());
  for (int i = 0; i < 200; ++i) {
    const std::string reply =
        shard.Ingest(LogSource::kTorque, "still not a torque line");
    ASSERT_NE(ReplyVerdict(reply), "SHED") << reply;
    if (ReplyVerdict(reply) == "BUSY") ::usleep(1000);
  }
  ASSERT_TRUE(shard.Drain().ok());
  EXPECT_EQ(shard.state(), TenantState::kDegraded);
  EXPECT_NE(shard.QueryHealth().find("state=degraded"), std::string::npos);
  shard.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(ServiceTest, BudgetWindowVerdictDoesNotDependOnApplyLag) {
  // One over-budget window, then one clean window.  Each window's
  // verdict must describe its own lines, so the final health is the
  // clean window's whether the worker kept up with every line or
  // trailed the whole stream behind a slow fault.
  constexpr std::size_t kWindow = 64;
  std::vector<TimedLine> traffic;
  for (std::size_t i = 0; i < kWindow; ++i) {
    traffic.push_back({TimePoint(), LogSource::kTorque, "not a torque line"});
  }
  traffic.insert(traffic.end(), lines_->begin(), lines_->begin() + kWindow);
  TenantLimits limits;
  limits.queue_capacity = 4 * kWindow;
  limits.budget.policy = DegradationPolicy::kQuarantineAndContinue;
  limits.budget.window_lines = kWindow;
  limits.budget.min_malformed = 4;
  limits.budget.max_malformed_fraction = 0.1;

  std::string health[2];
  for (const bool trail : {false, true}) {
    SCOPED_TRACE(trail ? "worker trails" : "worker keeps up");
    const std::string dir = Dir(trail ? "window_trail" : "window_keep_up");
    TenantShard shard("windowed", dir, *machine_, LogDiverConfig{}, limits);
    ASSERT_TRUE(shard.Start().ok());
    if (trail) {
      shard.ArmFault(ShardFault::kSlow, /*after=*/1, /*mean_ms=*/2,
                     /*seed=*/7);
    }
    for (std::size_t i = 0; i < traffic.size(); ++i) {
      Feed(shard, i, i + 1, &traffic);
      while (!trail && shard.applied() < shard.accepted()) ::usleep(100);
    }
    ASSERT_TRUE(shard.Drain().ok());
    health[trail] = shard.QueryHealth();
    shard.Stop();
    std::filesystem::remove_all(dir);
  }
  EXPECT_EQ(health[0], health[1]);
  EXPECT_NE(health[1].find("state=active"), std::string::npos) << health[1];
}

TEST_F(ServiceTest, StopOnAWedgedWorkerIsBounded) {
  const std::string dir = Dir("wedged_stop");
  TenantLimits limits;
  limits.stop_grace_ms = 200;
  TenantShard shard("wedged", dir, *machine_, LogDiverConfig{}, limits);
  ASSERT_TRUE(shard.Start().ok());
  shard.ArmFault(ShardFault::kHang, /*after=*/1, 0, 0);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(ReplyVerdict(shard.Ingest((*lines_)[i].source,
                                        (*lines_)[i].line)),
              "OK");
  }
  // The worker parks inside the injected hang before applying anything
  // (only Abandon releases it); Stop() must return anyway — within the
  // grace bound, not a forever join (the shutdown half of the
  // watchdog's abandon semantics).
  ::usleep(50 * 1000);
  const auto t0 = std::chrono::steady_clock::now();
  shard.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(20));
  std::filesystem::remove_all(dir);
}

TEST_F(ServiceTest, FullQueueAnswersBusyNotSilence) {
  const std::string dir = Dir("busy");
  TenantLimits limits;
  limits.queue_capacity = 4;
  TenantShard shard("slowpoke", dir, *machine_, LogDiverConfig{}, limits);
  ASSERT_TRUE(shard.Start().ok());
  // A slow worker (seeded delay per applied line) backs the queue up.
  shard.ArmFault(ShardFault::kSlow, /*after=*/1, /*mean_ms=*/40, /*seed=*/7);
  bool saw_busy = false;
  for (std::size_t i = 0; i < 64 && !saw_busy; ++i) {
    const std::string reply =
        shard.Ingest((*lines_)[i].source, (*lines_)[i].line);
    saw_busy = ReplyVerdict(reply) == "BUSY";
  }
  EXPECT_TRUE(saw_busy);
  shard.ArmFault(ShardFault::kNone, 0, 0, 0);
  ASSERT_TRUE(shard.Drain().ok());  // and the backlog still applies fully
  shard.Stop();
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------------------
// Daemon: admission, routing, restart re-adoption, watchdog
// --------------------------------------------------------------------

class DaemonTest : public ServiceTest {
 protected:
  ServiceOptions Options(const std::string& dir) const {
    ServiceOptions options;
    options.data_dir = dir;
    options.listen = "unix:" + dir + "/sock";
    options.watchdog_period_ms = 0;  // tests arm it explicitly
    return options;
  }

  static void IngestThrough(LogDiverDaemon& daemon, const std::string& tenant,
                            std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end && i < lines_->size(); ++i) {
      const TimedLine& item = (*lines_)[i];
      std::string reply;
      for (int attempt = 0; attempt < 1000; ++attempt) {
        reply = daemon.HandleCommand("INGEST " + tenant + " " +
                                     LogSourceName(item.source) + " " +
                                     item.line);
        if (ReplyVerdict(reply) != "BUSY") break;
        ::usleep(1000);
      }
      ASSERT_EQ(ReplyVerdict(reply), "OK") << reply;
    }
  }
};

TEST_F(DaemonTest, RoutesVerbsAndValidatesRequests) {
  const std::string dir = Dir("daemon_verbs");
  LogDiverDaemon daemon(*machine_, Options(dir));
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_EQ(ReplyVerdict(daemon.HandleCommand("PING")), "OK");
  EXPECT_EQ(ReplyVerdict(daemon.HandleCommand("NONSENSE x")), "ERR");
  EXPECT_EQ(ReplyVerdict(daemon.HandleCommand("QUERY ghost report")), "ERR");
  EXPECT_EQ(ReplyVerdict(daemon.HandleCommand("INGEST ../up torque x")),
            "ERR");
  // FAULT is an admin surface the daemon must opt into.
  EXPECT_EQ(ReplyVerdict(daemon.HandleCommand("FAULT t1 hang 1")), "ERR");

  IngestThrough(daemon, "t1", 0, 50);
  EXPECT_EQ(daemon.tenant_count(), 1u);
  EXPECT_EQ(ReplyVerdict(daemon.HandleCommand("DRAIN")), "OK");
  const std::string report = daemon.HandleCommand("QUERY t1 report");
  EXPECT_EQ(ReplyVerdict(report), "OK");
  EXPECT_NE(report.find("applied=50"), std::string::npos) << report;
  EXPECT_EQ(ReplyVerdict(daemon.HandleCommand("SNAPSHOT")), "OK");
  daemon.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(DaemonTest, AdmissionCapAnswersBusy) {
  const std::string dir = Dir("daemon_cap");
  ServiceOptions options = Options(dir);
  options.max_tenants = 1;
  LogDiverDaemon daemon(*machine_, options);
  ASSERT_TRUE(daemon.Start().ok());
  IngestThrough(daemon, "first", 0, 5);
  const std::string refused =
      daemon.HandleCommand("INGEST second torque " + (*lines_)[0].line);
  EXPECT_EQ(ReplyVerdict(refused), "BUSY") << refused;
  // The incumbent is unaffected by the refusal at the door.
  IngestThrough(daemon, "first", 5, 10);
  EXPECT_EQ(daemon.tenant_count(), 1u);
  daemon.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(DaemonTest, RestartReadoptsEveryTenantBitIdentically) {
  const std::string dir = Dir("daemon_restart");
  std::string report_a, report_b;
  {
    LogDiverDaemon daemon(*machine_, Options(dir));
    ASSERT_TRUE(daemon.Start().ok());
    IngestThrough(daemon, "alpha", 0, 300);
    IngestThrough(daemon, "beta", 300, 600);
    ASSERT_EQ(ReplyVerdict(daemon.HandleCommand("DRAIN")), "OK");
    report_a = daemon.HandleCommand("QUERY alpha report");
    report_b = daemon.HandleCommand("QUERY beta report");
    daemon.Stop();
  }
  LogDiverDaemon daemon(*machine_, Options(dir));
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_EQ(daemon.tenant_count(), 2u);
  EXPECT_EQ(daemon.tenants_recovered(), 2u);
  EXPECT_EQ(daemon.HandleCommand("QUERY alpha report"), report_a);
  EXPECT_EQ(daemon.HandleCommand("QUERY beta report"), report_b);
  daemon.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(DaemonTest, TenantThatCannotStartDoesNotStopTheDaemon) {
  const std::string dir = Dir("daemon_bad_tenant");
  std::string report;
  {
    LogDiverDaemon daemon(*machine_, Options(dir));
    ASSERT_TRUE(daemon.Start().ok());
    IngestThrough(daemon, "good", 0, 300);
    ASSERT_EQ(ReplyVerdict(daemon.HandleCommand("DRAIN")), "OK");
    report = daemon.HandleCommand("QUERY good report");
    daemon.Stop();
  }
  const std::string old_bytes = OldLayoutJournal();
  std::filesystem::create_directories(dir + "/stale");
  {
    std::ofstream out(dir + "/stale/journal.ldj", std::ios::binary);
    out << old_bytes;
  }

  LogDiverDaemon daemon(*machine_, Options(dir));
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_EQ(daemon.tenant_count(), 1u);
  EXPECT_EQ(daemon.tenants_recovered(), 1u);
  EXPECT_EQ(daemon.HandleCommand("QUERY good report"), report);
  const std::string refused =
      daemon.HandleCommand("INGEST stale torque " + (*lines_)[0].line);
  EXPECT_EQ(ReplyVerdict(refused), "ERR") << refused;
  EXPECT_NE(refused.find("cannot admit tenant stale"), std::string::npos)
      << refused;
  EXPECT_NE(refused.find("<s> <claimed_unix> <raw line>"), std::string::npos)
      << refused;
  EXPECT_EQ(ReplyVerdict(daemon.HandleCommand("QUERY stale report")), "ERR");
  EXPECT_EQ(ReadFile(dir + "/stale/journal.ldj"), old_bytes);
  daemon.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(DaemonTest, WatchdogRecyclesHungShardAndLosesNothing) {
  const std::string dir = Dir("daemon_watchdog");
  ServiceOptions options = Options(dir);
  options.watchdog_period_ms = 20;
  options.stall_timeout_ms = 100;
  options.enable_fault_commands = true;
  LogDiverDaemon daemon(*machine_, options);
  ASSERT_TRUE(daemon.Start().ok());

  // Reference bytes for the same traffic, computed on a healthy tenant.
  IngestThrough(daemon, "healthy", 0, 400);
  ASSERT_EQ(ReplyVerdict(daemon.HandleCommand("DRAIN")), "OK");
  const std::string want = daemon.HandleCommand("QUERY healthy report");

  // Hang the victim's worker mid-stream, with lines still queued
  // behind the hung one (an idle shard is not a stalled shard).
  EXPECT_EQ(ReplyVerdict(daemon.HandleCommand("FAULT victim hang 200")), "OK");
  IngestThrough(daemon, "victim", 0, 400);
  // Generous deadline: an oversubscribed CI machine can starve the
  // watchdog thread and the replacement shard's journal replay.
  for (int i = 0; i < 6000 && daemon.watchdog_recycles() == 0; ++i) {
    ::usleep(10 * 1000);
  }
  ASSERT_GE(daemon.watchdog_recycles(), 1u) << "watchdog never fired";

  // After the recycle the tenant answers again, has every acked line,
  // and its report bytes match the healthy reference exactly.
  std::string report;
  for (int i = 0; i < 3000; ++i) {
    report = daemon.HandleCommand("QUERY victim ingest");
    if (ReplyVerdict(report) == "OK") break;
    ::usleep(10 * 1000);
  }
  ASSERT_EQ(ReplyVerdict(report), "OK") << report;
  ASSERT_EQ(ReplyVerdict(daemon.HandleCommand("DRAIN")), "OK");
  const std::string got = daemon.HandleCommand("QUERY victim report");
  // Same lines, same schedule — identical bytes modulo nothing.
  EXPECT_EQ(got, want);
  daemon.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(DaemonTest, WatchdogRecyclesShardHungOnItsLastBatch) {
  // The whole backlog fits in one apply batch, so the worker has
  // emptied the queue when it hangs on the last line: the stall shows
  // as accepted-but-unapplied work, never as queue depth.
  const std::string dir = Dir("daemon_watchdog_batch");
  ServiceOptions options = Options(dir);
  options.watchdog_period_ms = 20;
  options.stall_timeout_ms = 100;
  options.enable_fault_commands = true;
  LogDiverDaemon daemon(*machine_, options);
  ASSERT_TRUE(daemon.Start().ok());
  constexpr std::size_t kLines = 100;

  IngestThrough(daemon, "healthy", 0, kLines);
  ASSERT_EQ(ReplyVerdict(daemon.HandleCommand("DRAIN")), "OK");
  const std::string want = daemon.HandleCommand("QUERY healthy report");

  EXPECT_EQ(ReplyVerdict(daemon.HandleCommand(
                "FAULT victim hang " + std::to_string(kLines))),
            "OK");
  IngestThrough(daemon, "victim", 0, kLines);
  for (int i = 0; i < 3000 && daemon.watchdog_recycles() == 0; ++i) {
    ::usleep(10 * 1000);
  }
  ASSERT_GE(daemon.watchdog_recycles(), 1u) << "watchdog never fired";

  std::string reply;
  for (int i = 0; i < 3000; ++i) {
    reply = daemon.HandleCommand("QUERY victim ingest");
    if (ReplyVerdict(reply) == "OK") break;
    ::usleep(10 * 1000);
  }
  ASSERT_EQ(ReplyVerdict(reply), "OK") << reply;
  ASSERT_EQ(ReplyVerdict(daemon.HandleCommand("DRAIN")), "OK");
  EXPECT_EQ(daemon.HandleCommand("QUERY victim report"), want);
  daemon.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(DaemonTest, SlowShardIsBackpressuredNotRecycled) {
  const std::string dir = Dir("daemon_slow");
  ServiceOptions options = Options(dir);
  options.watchdog_period_ms = 20;
  options.stall_timeout_ms = 150;
  options.enable_fault_commands = true;
  options.tenant.queue_capacity = 8;
  LogDiverDaemon daemon(*machine_, options);
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_EQ(ReplyVerdict(daemon.HandleCommand("FAULT sluggish slow 1 30 7")),
            "OK");
  IngestThrough(daemon, "sluggish", 0, 60);  // BUSY-retries absorb the lag
  ASSERT_EQ(ReplyVerdict(daemon.HandleCommand("DRAIN")), "OK");
  // Slowness is not a stall: progress kept happening, so the watchdog
  // must not have recycled the shard.
  EXPECT_EQ(daemon.watchdog_recycles(), 0u);
  const std::string health = daemon.HandleCommand("QUERY sluggish health");
  EXPECT_NE(health.find("applied=60"), std::string::npos) << health;
  daemon.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ld::service
