#include "faults/injector.hpp"

#include <gtest/gtest.h>

#include "workload/generator.hpp"

namespace ld {
namespace {

class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest() : machine_(Machine::Testbed(960, 192)) {
    workload_config_.target_app_runs = 3000;
    workload_config_.campaign = Duration::Days(30);
    // Hot fault rates so a small campaign still sees impact.
    fault_config_.xe_fatal_per_node_hour = 1e-4;
    fault_config_.xk_fatal_per_node_hour = 5e-4;
    fault_config_.lustre_incidents_per_day = 2.0;
    fault_config_.blade_faults_per_day = 0.5;
  }

  Workload MakeWorkload(std::uint64_t seed) {
    WorkloadGenerator gen(machine_, workload_config_);
    Rng rng(seed);
    auto wl = gen.Generate(rng);
    EXPECT_TRUE(wl.ok());
    return std::move(*wl);
  }

  InjectionResult Inject(Workload& wl, std::uint64_t seed) {
    FaultInjector injector(machine_, fault_config_);
    Rng rng(seed);
    auto result = injector.Inject(wl, workload_config_.epoch,
                                  workload_config_.campaign, rng);
    EXPECT_TRUE(result.ok());
    return std::move(*result);
  }

  Machine machine_;
  WorkloadConfig workload_config_;
  FaultModelConfig fault_config_;
};

TEST_F(InjectorTest, ProducesEventsAndKills) {
  Workload wl = MakeWorkload(1);
  const InjectionResult result = Inject(wl, 2);
  EXPECT_GT(result.events.size(), 100u);
  EXPECT_GT(result.system_killed_apps, 0u);
}

TEST_F(InjectorTest, DeterministicInSeed) {
  Workload wl1 = MakeWorkload(1);
  Workload wl2 = MakeWorkload(1);
  const InjectionResult a = Inject(wl1, 9);
  const InjectionResult b = Inject(wl2, 9);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.system_killed_apps, b.system_killed_apps);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].category, b.events[i].category);
    EXPECT_EQ(a.events[i].node, b.events[i].node);
  }
}

TEST_F(InjectorTest, EventsAreTimeSortedWithinCampaign) {
  Workload wl = MakeWorkload(2);
  const InjectionResult result = Inject(wl, 3);
  const TimePoint lo = workload_config_.epoch;
  for (std::size_t i = 0; i < result.events.size(); ++i) {
    EXPECT_GE(result.events[i].time, lo);
    if (i > 0) {
      EXPECT_GE(result.events[i].time, result.events[i - 1].time);
    }
  }
}

TEST_F(InjectorTest, KilledAppsAreConsistent) {
  Workload wl = MakeWorkload(3);
  const InjectionResult result = Inject(wl, 4);
  std::uint64_t killed = 0;
  for (const Application& app : wl.apps) {
    if (app.cancelled) continue;
    EXPECT_GT(app.end, app.start);
    if (app.truth == AppOutcome::kSystemFailure) {
      ++killed;
      // A system-killed app shows an abnormal exit.
      EXPECT_TRUE(app.exit_code != 0 || app.exit_signal != 0);
      const auto it = result.truth.find(app.apid);
      ASSERT_NE(it, result.truth.end());
      EXPECT_EQ(it->second.outcome, AppOutcome::kSystemFailure);
      EXPECT_NE(it->second.cause, ErrorCategory::kUnknown);
      EXPECT_NE(it->second.event_id, 0u);
      if (app.alps_node_failure) {
        EXPECT_EQ(app.exit_signal, 9);
      }
    }
  }
  EXPECT_EQ(killed, result.system_killed_apps);
}

TEST_F(InjectorTest, CancelledAppsFollowNodeDownKills) {
  Workload wl = MakeWorkload(4);
  const InjectionResult result = Inject(wl, 5);
  std::uint64_t cancelled = 0;
  for (const Job& job : wl.jobs) {
    bool job_dead = false;
    for (std::size_t idx : job.app_indices) {
      const Application& app = wl.apps[idx];
      if (app.cancelled) {
        ++cancelled;
        EXPECT_TRUE(job_dead)
            << "cancelled app without a preceding node-down kill";
        // Cancelled apps must not appear in the truth map.
        EXPECT_EQ(result.truth.count(app.apid), 0u);
      }
      if (app.alps_node_failure) job_dead = true;
    }
    if (job_dead) {
      EXPECT_EQ(job.exit_status, -11);
    }
  }
  EXPECT_EQ(cancelled, result.cancelled_apps);
}

TEST_F(InjectorTest, TruthCoversEveryLiveApp) {
  Workload wl = MakeWorkload(5);
  const InjectionResult result = Inject(wl, 6);
  std::uint64_t live = 0;
  for (const Application& app : wl.apps) {
    if (app.cancelled) continue;
    ++live;
    const auto it = result.truth.find(app.apid);
    ASSERT_NE(it, result.truth.end());
    EXPECT_EQ(it->second.outcome, app.truth);
  }
  EXPECT_EQ(result.truth.size(), live);
}

TEST_F(InjectorTest, UndetectedEventsExist) {
  // The XK detection gap: some fatal GPU events must be undetected.
  // Rates are cranked so the expected undetected count is >> 1 and the
  // assertion is robust to seed choice.
  fault_config_.gpu_error_detection = 0.3;
  fault_config_.xk_fatal_per_node_hour = 5e-3;
  fault_config_.xk_app_fatal_per_hour = 0.05;
  Workload wl = MakeWorkload(6);
  const InjectionResult result = Inject(wl, 7);
  std::uint64_t undetected_gpu = 0;
  for (const ErrorEvent& ev : result.events) {
    if (!ev.detected && (ev.category == ErrorCategory::kGpuDbe ||
                         ev.category == ErrorCategory::kGpuXid)) {
      ++undetected_gpu;
    }
  }
  EXPECT_GT(undetected_gpu, 0u);
}

TEST_F(InjectorTest, LustreEventsAreSystemScopeWithOutage) {
  Workload wl = MakeWorkload(7);
  const InjectionResult result = Inject(wl, 8);
  std::uint64_t lustre = 0;
  for (const ErrorEvent& ev : result.events) {
    if (ev.category != ErrorCategory::kLustre) continue;
    ++lustre;
    EXPECT_EQ(ev.scope, Scope::kSystem);
    EXPECT_EQ(ev.node, kInvalidNode);
    EXPECT_GT(ev.outage.seconds(), 0);
  }
  EXPECT_GT(lustre, 20u);  // ~2/day for 30 days
}

TEST_F(InjectorTest, ZeroRatesInjectNothing) {
  fault_config_ = FaultModelConfig{};
  fault_config_.xe_fatal_per_node_hour = 0.0;
  fault_config_.xk_fatal_per_node_hour = 0.0;
  fault_config_.xe_app_fatal_per_hour = 0.0;
  fault_config_.xk_app_fatal_per_hour = 0.0;
  fault_config_.lustre_incidents_per_day = 0.0;
  fault_config_.blade_faults_per_day = 0.0;
  fault_config_.link_failures_per_day = 0.0;
  fault_config_.corrected_mce_per_day = 0.0;
  fault_config_.corrected_gpu_per_day = 0.0;
  fault_config_.link_degrade_per_day = 0.0;
  Workload wl = MakeWorkload(8);
  const InjectionResult result = Inject(wl, 9);
  EXPECT_TRUE(result.events.empty());
  EXPECT_EQ(result.system_killed_apps, 0u);
  for (const Application& app : wl.apps) {
    EXPECT_NE(app.truth, AppOutcome::kSystemFailure);
  }
}

TEST_F(InjectorTest, HigherRatesKillMoreApps) {
  Workload wl1 = MakeWorkload(9);
  const InjectionResult low = Inject(wl1, 10);
  fault_config_.xe_fatal_per_node_hour *= 10.0;
  fault_config_.xk_fatal_per_node_hour *= 10.0;
  fault_config_.lustre_incidents_per_day *= 3.0;
  Workload wl2 = MakeWorkload(9);
  const InjectionResult high = Inject(wl2, 10);
  EXPECT_GT(high.system_killed_apps, low.system_killed_apps);
}

TEST_F(InjectorTest, ReliabilityGrowthShiftsEventsEarly) {
  fault_config_.hazard_multiplier_start = 2.0;
  fault_config_.hazard_multiplier_end = 0.2;
  // Silence the stationary noise channels so the split is clean.
  fault_config_.corrected_mce_per_day = 0.0;
  fault_config_.corrected_gpu_per_day = 0.0;
  fault_config_.link_degrade_per_day = 0.0;
  Workload wl = MakeWorkload(11);
  const InjectionResult result = Inject(wl, 12);
  const TimePoint midpoint =
      workload_config_.epoch + Duration(workload_config_.campaign.seconds() / 2);
  std::uint64_t early = 0, late = 0;
  for (const ErrorEvent& ev : result.events) {
    (ev.time < midpoint ? early : late) += 1;
  }
  ASSERT_GT(early + late, 100u);
  // With a 2.0 -> 0.2 ramp, ~75% of the hazard mass is in the first half.
  EXPECT_GT(early, late * 2);
}

TEST_F(InjectorTest, MeanPreservingRampKeepsTotalsComparable) {
  // A ramp with mean multiplier 1.0 redistributes hazard in time but
  // should leave campaign totals within sampling noise of stationary.
  Workload wl1 = MakeWorkload(12);
  const InjectionResult base = Inject(wl1, 13);
  fault_config_.hazard_multiplier_start = 1.5;
  fault_config_.hazard_multiplier_end = 0.5;
  Workload wl2 = MakeWorkload(12);
  const InjectionResult ramped = Inject(wl2, 13);
  const double base_n = static_cast<double>(base.events.size());
  const double ramped_n = static_cast<double>(ramped.events.size());
  ASSERT_GT(base_n, 200.0);
  EXPECT_NEAR(ramped_n / base_n, 1.0, 0.25);
}

TEST_F(InjectorTest, KillTruncatesWithinOriginalWindow) {
  Workload pristine = MakeWorkload(10);
  Workload injected = MakeWorkload(10);
  (void)Inject(injected, 11);
  ASSERT_EQ(pristine.apps.size(), injected.apps.size());
  for (std::size_t i = 0; i < pristine.apps.size(); ++i) {
    EXPECT_LE(injected.apps[i].end, pristine.apps[i].end);
    EXPECT_EQ(injected.apps[i].start, pristine.apps[i].start);
  }
}

}  // namespace
}  // namespace ld
