#include "logdiver/coalesce.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "logdiver/snapshot.hpp"

namespace ld {
namespace {

ErrorRecord Rec(std::int64_t t, ErrorCategory cat, Severity sev,
                LocScope scope, std::string loc,
                LogSource src = LogSource::kSyslog) {
  ErrorRecord rec;
  rec.time = TimePoint(t);
  rec.category = cat;
  rec.severity = sev;
  rec.scope = scope;
  rec.location = Intern(loc);
  rec.source = src;
  return rec;
}

class CoalesceTest : public ::testing::Test {
 protected:
  CoalesceTest() : machine_(Machine::Testbed(96, 24)) {
    node0_ = machine_.node(0).cname.ToString();
    node1_ = machine_.node(1).cname.ToString();
  }
  Machine machine_;
  CoalesceConfig config_;
  std::string node0_;
  std::string node1_;
};

TEST_F(CoalesceTest, MergesBurstOnSameNode) {
  std::vector<ErrorRecord> records;
  for (int i = 0; i < 5; ++i) {
    records.push_back(Rec(1000 + i * 10, ErrorCategory::kMachineCheck,
                          Severity::kCorrected, LocScope::kNode, node0_));
  }
  CoalesceStats stats;
  const auto tuples = CoalesceEvents(machine_, records, config_, &stats);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].count, 5u);
  EXPECT_EQ(tuples[0].first, TimePoint(1000));
  EXPECT_EQ(tuples[0].last, TimePoint(1040));
  EXPECT_EQ(stats.input_events, 5u);
  EXPECT_EQ(stats.tuples, 1u);
}

TEST_F(CoalesceTest, WindowGapSplitsTuples) {
  std::vector<ErrorRecord> records = {
      Rec(1000, ErrorCategory::kMachineCheck, Severity::kCorrected,
          LocScope::kNode, node0_),
      Rec(1000 + 61, ErrorCategory::kMachineCheck, Severity::kCorrected,
          LocScope::kNode, node0_),  // beyond the 60s window
  };
  const auto tuples = CoalesceEvents(machine_, records, config_, nullptr);
  EXPECT_EQ(tuples.size(), 2u);
}

TEST_F(CoalesceTest, DifferentNodesStaySeparate) {
  std::vector<ErrorRecord> records = {
      Rec(1000, ErrorCategory::kMachineCheck, Severity::kFatal,
          LocScope::kNode, node0_),
      Rec(1001, ErrorCategory::kMachineCheck, Severity::kFatal,
          LocScope::kNode, node1_),
  };
  const auto tuples = CoalesceEvents(machine_, records, config_, nullptr);
  EXPECT_EQ(tuples.size(), 2u);
}

TEST_F(CoalesceTest, DifferentCategoriesStaySeparate) {
  std::vector<ErrorRecord> records = {
      Rec(1000, ErrorCategory::kMachineCheck, Severity::kFatal,
          LocScope::kNode, node0_),
      Rec(1001, ErrorCategory::kMemoryUE, Severity::kFatal, LocScope::kNode,
          node0_),
  };
  const auto tuples = CoalesceEvents(machine_, records, config_, nullptr);
  EXPECT_EQ(tuples.size(), 2u);
}

TEST_F(CoalesceTest, CrossSourceDedupAndSeverityMax) {
  std::vector<ErrorRecord> records = {
      Rec(1000, ErrorCategory::kMachineCheck, Severity::kCorrected,
          LocScope::kNode, node0_, LogSource::kSyslog),
      Rec(1002, ErrorCategory::kMachineCheck, Severity::kFatal,
          LocScope::kNode, node0_, LogSource::kHwerr),
  };
  const auto tuples = CoalesceEvents(machine_, records, config_, nullptr);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].severity, Severity::kFatal);
  EXPECT_TRUE(tuples[0].from_syslog);
  EXPECT_TRUE(tuples[0].from_hwerr);
}

TEST_F(CoalesceTest, UnsortedInputHandled) {
  std::vector<ErrorRecord> records = {
      Rec(1040, ErrorCategory::kMachineCheck, Severity::kCorrected,
          LocScope::kNode, node0_),
      Rec(1000, ErrorCategory::kMachineCheck, Severity::kCorrected,
          LocScope::kNode, node0_),
  };
  const auto tuples = CoalesceEvents(machine_, records, config_, nullptr);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].count, 2u);
}

TEST_F(CoalesceTest, ResolvesNodeLocation) {
  const auto tuples = CoalesceEvents(
      machine_,
      {Rec(1, ErrorCategory::kNodeHeartbeat, Severity::kFatal,
           LocScope::kNode, node0_)},
      config_, nullptr);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].nodes, NodeSet{0});
}

TEST_F(CoalesceTest, ResolvesBladeLocation) {
  const std::string blade = machine_.node(0).cname.BladePrefix();
  const auto tuples = CoalesceEvents(
      machine_,
      {Rec(1, ErrorCategory::kBladeFault, Severity::kFatal, LocScope::kBlade,
           blade)},
      config_, nullptr);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].nodes.size(), 4u);
}

TEST_F(CoalesceTest, ResolvesGeminiLocation) {
  const std::string gemini = machine_.node(2).cname.BladePrefix() + "g1";
  const auto tuples = CoalesceEvents(
      machine_,
      {Rec(1, ErrorCategory::kGeminiLink, Severity::kFatal, LocScope::kGemini,
           gemini)},
      config_, nullptr);
  ASSERT_EQ(tuples.size(), 1u);
  // g1 serves nodes 2 and 3 of the blade.
  EXPECT_EQ(tuples[0].nodes, (NodeSet{2, 3}));
}

TEST_F(CoalesceTest, SystemScopeHasNoNodes) {
  ErrorRecord lustre = Rec(1000, ErrorCategory::kLustre, Severity::kFatal,
                           LocScope::kSystem, "");
  lustre.recovered = TimePoint(1900);
  const auto tuples = CoalesceEvents(machine_, {lustre}, config_, nullptr);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_TRUE(tuples[0].nodes.empty());
  ASSERT_TRUE(tuples[0].recovered.has_value());
  const Interval window = tuples[0].ImpactWindow();
  EXPECT_TRUE(window.Contains(TimePoint(1500)));
  EXPECT_FALSE(window.Contains(TimePoint(2000)));
}

TEST_F(CoalesceTest, DropsUnknownComponents) {
  CoalesceStats stats;
  const auto tuples = CoalesceEvents(
      machine_,
      {Rec(1, ErrorCategory::kNodeHeartbeat, Severity::kFatal,
           LocScope::kNode, "c99-9c0s0n0")},
      config_, &stats);
  EXPECT_TRUE(tuples.empty());
  EXPECT_EQ(stats.unresolved_locations, 1u);
}

TEST_F(CoalesceTest, DroppedRecordStillSpendsATupleId) {
  // Tuple ids are persisted (snapshots, the bundle cache); their
  // numbering counts every tuple opening, dropped ones included.
  const auto tuples = CoalesceEvents(
      machine_,
      {Rec(1, ErrorCategory::kMachineCheck, Severity::kFatal, LocScope::kNode,
           node0_),
       Rec(2, ErrorCategory::kNodeHeartbeat, Severity::kFatal,
           LocScope::kNode, "c99-9c0s0n0"),
       Rec(3, ErrorCategory::kMachineCheck, Severity::kFatal, LocScope::kNode,
           node1_)},
      config_, nullptr);
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_EQ(tuples[0].id, 1u);
  EXPECT_EQ(tuples[1].id, 3u);
}

TEST_F(CoalesceTest, OutputSortedByFirstTime) {
  std::vector<ErrorRecord> records = {
      Rec(5000, ErrorCategory::kMemoryUE, Severity::kFatal, LocScope::kNode,
          node1_),
      Rec(1000, ErrorCategory::kMachineCheck, Severity::kFatal,
          LocScope::kNode, node0_),
  };
  const auto tuples = CoalesceEvents(machine_, records, config_, nullptr);
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_LT(tuples[0].first, tuples[1].first);
}

void ExpectSameTuple(const ErrorTuple& a, const ErrorTuple& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.category, b.category) << "id " << a.id;
  EXPECT_EQ(a.severity, b.severity) << "id " << a.id;
  EXPECT_EQ(a.scope, b.scope) << "id " << a.id;
  EXPECT_EQ(a.location, b.location) << "id " << a.id;
  EXPECT_EQ(a.nodes, b.nodes) << "id " << a.id;
  EXPECT_EQ(a.first, b.first) << "id " << a.id;
  EXPECT_EQ(a.last, b.last) << "id " << a.id;
  EXPECT_EQ(a.recovered, b.recovered) << "id " << a.id;
  EXPECT_EQ(a.count, b.count) << "id " << a.id;
  EXPECT_EQ(a.from_syslog, b.from_syslog) << "id " << a.id;
  EXPECT_EQ(a.from_hwerr, b.from_hwerr) << "id " << a.id;
}

TEST_F(CoalesceTest, StreamingWithRandomFlushesMatchesBatch) {
  // Locations of every scope.  Three never resolve; one of those shares
  // its (category, location) with a resolving blade, so it can displace
  // that blade's open tuple and then be dropped.
  struct Key {
    ErrorCategory category;
    LocScope scope;
    std::string location;
    bool resolves;
  };
  const std::string blade = machine_.node(4).cname.BladePrefix();
  std::vector<Key> keys = {
      {ErrorCategory::kMachineCheck, LocScope::kNode, node0_, true},
      {ErrorCategory::kMemoryUE, LocScope::kNode, node0_, true},
      {ErrorCategory::kMachineCheck, LocScope::kNode, node1_, true},
      {ErrorCategory::kBladeFault, LocScope::kBlade, blade, true},
      {ErrorCategory::kBladeFault, LocScope::kNode, blade, false},
      {ErrorCategory::kGeminiLink, LocScope::kGemini, blade + "g0", true},
      {ErrorCategory::kGeminiLink, LocScope::kGemini, blade + "g1", true},
      {ErrorCategory::kLustre, LocScope::kSystem, "", true},
      {ErrorCategory::kNodeHeartbeat, LocScope::kNode, "c99-9c0s0n0", false},
      {ErrorCategory::kBladeFault, LocScope::kBlade, "c99-9c0s0", false},
  };
  // Three more keys per node: enough open keys between sparse flushes
  // to grow the key table and erase from crowded probe runs.
  for (NodeIndex n = 0; n < machine_.node_count(); ++n) {
    const std::string cname = machine_.node(n).cname.ToString();
    for (const ErrorCategory cat :
         {ErrorCategory::kGpuDbe, ErrorCategory::kGpuXid,
          ErrorCategory::kKernelSoftware}) {
      keys.push_back({cat, LocScope::kNode, cname, true});
    }
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Arrival order: events at a nondecreasing front, plus late copies
    // of an open key's latest event still inside the tupling window.  A
    // late event lands inside its open tuple's span, so it merges the
    // same way in batch's (time, index) order and creates no tuple.
    // Only a resolved latest event leaves its key open: a dropped
    // record spends a tuple id where it is fed, so a late one would
    // renumber what follows.
    struct Latest {
      std::int64_t time = -1;
      bool resolved = false;
    };
    std::map<std::pair<ErrorCategory, std::string>, Latest> latest;
    std::vector<ErrorRecord> records;
    std::int64_t front = 1000;
    for (int i = 0; i < 3000; ++i) {
      const Key& key = keys[rng.UniformInt(keys.size())];
      Latest& last = latest[{key.category, key.location}];
      std::int64_t t = front;
      if (key.resolves && last.resolved && front - last.time <= 60 &&
          rng.Bernoulli(0.2)) {
        t = last.time;  // late
      } else {
        front += rng.UniformInt(0, 40);
        t = front;
      }
      ErrorRecord rec = Rec(t, key.category,
                            static_cast<Severity>(rng.UniformInt(3)),
                            key.scope, key.location,
                            rng.Bernoulli(0.5) ? LogSource::kSyslog
                                               : LogSource::kHwerr);
      if (key.scope == LocScope::kSystem) {
        rec.recovered = TimePoint(t + rng.UniformInt(1, 3000));
      }
      last = {t, key.resolves};
      records.push_back(rec);
    }

    CoalesceStats batch_stats;
    const std::vector<ErrorTuple> batch =
        CoalesceEvents(machine_, records, config_, &batch_stats);

    // A watermark may pass a time only once no later record is older.
    std::vector<std::int64_t> suffix_min(records.size() + 1, INT64_MAX);
    for (std::size_t i = records.size(); i-- > 0;) {
      suffix_min[i] =
          std::min(suffix_min[i + 1], records[i].time.unix_seconds());
    }
    // Odd seeds flush often; even seeds rarely, so hundreds of keys
    // stay open between flushes.
    const double flush_p = seed % 2 == 1 ? 0.05 : 0.003;
    const std::size_t restore_at = rng.UniformInt(records.size());
    // `coalescer` goes through one SaveState/LoadState round trip;
    // `twin` sees the same feed without it.
    auto coalescer = std::make_unique<StreamingCoalescer>(machine_, config_);
    StreamingCoalescer twin(machine_, config_);
    std::vector<ErrorTuple> streamed;
    for (std::size_t i = 0; i < records.size(); ++i) {
      coalescer->Add(records[i]);
      twin.Add(records[i]);
      if (rng.Bernoulli(flush_p)) {
        const std::int64_t safe = suffix_min[i + 1];
        const TimePoint watermark(safe - rng.UniformInt(0, 100));
        for (ErrorTuple& t : coalescer->Flush(watermark)) {
          streamed.push_back(t);
        }
        (void)twin.Flush(watermark);
      }
      if (i == restore_at) {
        SnapshotWriter saved;
        coalescer->SaveState(saved);
        coalescer = std::make_unique<StreamingCoalescer>(machine_, config_);
        SnapshotReader r(saved.bytes());
        coalescer->LoadState(r);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(r.remaining(), 0u);
      }
    }
    // The restored coalescer's state is byte for byte the twin's.
    SnapshotWriter restored_state;
    SnapshotWriter twin_state;
    coalescer->SaveState(restored_state);
    twin.SaveState(twin_state);
    EXPECT_EQ(restored_state.bytes(), twin_state.bytes());

    for (ErrorTuple& t : coalescer->FlushAll()) streamed.push_back(t);
    EXPECT_EQ(coalescer->open_tuples(), 0u);

    std::sort(streamed.begin(), streamed.end(),
              [](const ErrorTuple& a, const ErrorTuple& b) {
                return a.first != b.first ? a.first < b.first : a.id < b.id;
              });
    ASSERT_EQ(streamed.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ExpectSameTuple(streamed[i], batch[i]);
    }
    const CoalesceStats& stats = coalescer->stats();
    EXPECT_EQ(stats.input_events, batch_stats.input_events);
    EXPECT_EQ(stats.tuples, batch_stats.tuples);
    EXPECT_EQ(stats.unresolved_locations, batch_stats.unresolved_locations);
    EXPECT_GT(batch_stats.unresolved_locations, 0u);
  }
}

}  // namespace
}  // namespace ld
