// Tests for the shared worker-roster layer (runtime/backend_fleet.h): the
// profile catalog, round-robin slot assignment, capacity-unit accounting,
// state transitions, the fault-schedule parser, and the heterogeneous
// execution semantics both substrates build on it.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/naive_policy.h"
#include "common/check.h"
#include "pipeline/apps.h"
#include "pipeline/backend_profile.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/backend_fleet.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/state_board.h"

namespace pard {
namespace {

PipelineSpec OneModule(std::vector<BackendProfile> backends = {}) {
  ModuleSpec m;
  m.id = 0;
  m.model = "eye_tracking";
  PipelineSpec spec("one", MsToUs(500), {m});
  spec.set_backends(std::move(backends));
  return spec;
}

BackendProfile Grade(const char* name, double grade) {
  BackendProfile p;
  p.name = name;
  p.speed_grade = grade;
  return p;
}

TEST(BackendFleet, EmptyCatalogIsHomogeneousBaseline) {
  BackendFleet fleet(OneModule(), 2 * kUsPerSec);
  EXPECT_EQ(fleet.CatalogSize(), 1);
  const BackendSlot a = fleet.Provision(0, 0);
  const BackendSlot b = fleet.Provision(0, 0);
  EXPECT_EQ(a.worker_id, 0);
  EXPECT_EQ(b.worker_id, 1);
  EXPECT_DOUBLE_EQ(a.exec_scale, 1.0);
  EXPECT_DOUBLE_EQ(a.speed, 1.0);
  EXPECT_EQ(a.cold_start, 2 * kUsPerSec);  // Inherited default.
  fleet.SetState(0, 0, BackendState::kActive, 10);
  fleet.SetState(0, 1, BackendState::kActive, 10);
  EXPECT_EQ(fleet.ActiveCount(0), 2);
  EXPECT_DOUBLE_EQ(fleet.ActiveUnits(0), 2.0);  // Exactly the count.
  EXPECT_DOUBLE_EQ(fleet.MeanActiveSpeed(0), 1.0);
}

TEST(BackendFleet, RoundRobinAssignmentAndUnitAccounting) {
  BackendFleet fleet(OneModule({Grade("fast", 1.0), Grade("slow", 0.5)}), 2 * kUsPerSec);
  const BackendSlot w0 = fleet.Provision(0, 0);
  const BackendSlot w1 = fleet.Provision(0, 0);
  const BackendSlot w2 = fleet.Provision(0, 0);
  EXPECT_EQ(w0.profile_index, 0);
  EXPECT_EQ(w1.profile_index, 1);
  EXPECT_EQ(w2.profile_index, 0);  // Wraps around the catalog.
  EXPECT_DOUBLE_EQ(w1.exec_scale, 2.0);  // Half speed -> double duration.
  EXPECT_DOUBLE_EQ(w1.speed, 0.5);
  for (int id : {0, 1, 2}) {
    fleet.SetState(0, id, BackendState::kActive, 0);
  }
  EXPECT_EQ(fleet.ActiveCount(0), 3);
  EXPECT_DOUBLE_EQ(fleet.ActiveUnits(0), 2.5);
  EXPECT_DOUBLE_EQ(fleet.MeanActiveSpeed(0), 2.5 / 3.0);
  // Failing the slow worker removes 0.5 units.
  fleet.SetState(0, 1, BackendState::kFailed, 100);
  EXPECT_DOUBLE_EQ(fleet.ActiveUnits(0), 2.0);
  EXPECT_EQ(fleet.ProvisionedCount(0), 2);
}

TEST(BackendFleet, ProfileColdStartOverridesDefault) {
  BackendProfile slow = Grade("slow", 0.5);
  slow.cold_start = 7 * kUsPerSec;
  BackendFleet fleet(OneModule({Grade("fast", 1.0), slow}), 2 * kUsPerSec);
  EXPECT_EQ(fleet.Provision(0, 0).cold_start, 2 * kUsPerSec);
  EXPECT_EQ(fleet.Provision(0, 0).cold_start, 7 * kUsPerSec);
}

TEST(BackendFleet, PerModuleScaleAppliesOnlyToNamedModel) {
  BackendProfile quirky = Grade("quirky", 0.5);
  quirky.module_scale = {{"face_recognition", 1.25}};
  PipelineSpec lv = MakeLiveVideo();  // Module 1 is face_recognition.
  lv.set_backends({quirky});
  BackendFleet fleet(lv, 0);
  EXPECT_DOUBLE_EQ(fleet.Provision(0, 0).exec_scale, 2.0);
  EXPECT_DOUBLE_EQ(fleet.Provision(1, 0).exec_scale, 2.5);  // 1.25 / 0.5.
}

TEST(BackendFleet, TerminalStatesAreSticky) {
  BackendFleet fleet(OneModule(), 0);
  fleet.Provision(0, 0);
  fleet.SetState(0, 0, BackendState::kActive, 1);
  fleet.SetState(0, 0, BackendState::kFailed, 2);
  EXPECT_THROW(fleet.SetState(0, 0, BackendState::kActive, 3), CheckError);
  EXPECT_THROW(fleet.SetState(0, 0, BackendState::kDraining, 3), CheckError);
  EXPECT_EQ(fleet.State(0, 0), BackendState::kFailed);
  // Unknown slots are loud errors, not silent no-ops.
  EXPECT_THROW(fleet.SetState(0, 9, BackendState::kActive, 3), CheckError);
}

TEST(BackendFleet, TransitionLogRecordsRosterHistory) {
  BackendFleet fleet(OneModule(), 0);
  fleet.Provision(0, 0);
  fleet.SetState(0, 0, BackendState::kActive, 5);
  fleet.SetState(0, 0, BackendState::kDraining, 9);
  fleet.SetState(0, 0, BackendState::kRetired, 12);
  const std::vector<FleetTransition> log = fleet.transitions();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].to, BackendState::kColdStarting);
  EXPECT_EQ(log[1].to, BackendState::kActive);
  EXPECT_EQ(log[1].at, 5);
  EXPECT_EQ(log[3].to, BackendState::kRetired);
  EXPECT_EQ(log[3].at, 12);
}

TEST(FaultSchedule, ParsesKillAndAddEventsSortedByTime) {
  const auto events = ParseFaultSchedule("80:1:add:2, 60:1:kill:2");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at, SecToUs(60));
  EXPECT_EQ(events[0].kind, FleetEvent::Kind::kKill);
  EXPECT_EQ(events[0].count, 2);
  EXPECT_EQ(events[1].at, SecToUs(80));
  EXPECT_EQ(events[1].kind, FleetEvent::Kind::kAdd);
  EXPECT_EQ(events[1].module_id, 1);
}

TEST(FaultSchedule, RejectsMalformedEntries) {
  EXPECT_THROW(ParseFaultSchedule("60:1:kill"), CheckError);       // Missing count.
  EXPECT_THROW(ParseFaultSchedule("60:1:explode:1"), CheckError);  // Unknown kind.
  EXPECT_THROW(ParseFaultSchedule("x:1:kill:1"), CheckError);      // Bad time.
  EXPECT_THROW(ParseFaultSchedule("60:-1:kill:1"), CheckError);    // Bad module.
  EXPECT_THROW(ParseFaultSchedule("60:1:kill:0"), CheckError);     // Bad count.
  EXPECT_THROW(ParseFaultSchedule(""), CheckError);                // No events.
}

// Errors must say WHICH event and WHICH field went wrong, quoting the bad
// token — a 40-event schedule with one typo is otherwise undebuggable.
TEST(FaultSchedule, ErrorsNameTheBadTokenAndPosition) {
  const auto message_of = [](const char* text) -> std::string {
    try {
      ParseFaultSchedule(text);
    } catch (const CheckError& e) {
      return e.what();
    }
    return "";
  };
  {
    const std::string msg = message_of("0:0:kill:1, x:1:kill:1");
    EXPECT_NE(msg.find("fault event 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("field 1 (\"x\")"), std::string::npos) << msg;
  }
  {
    const std::string msg = message_of("60:zap:kill:1");
    EXPECT_NE(msg.find("fault event 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("field 2 (\"zap\")"), std::string::npos) << msg;
  }
  {
    const std::string msg = message_of("60:1:explode:1");
    EXPECT_NE(msg.find("field 3 (\"explode\")"), std::string::npos) << msg;
    EXPECT_NE(msg.find("kill|add"), std::string::npos) << msg;
  }
  {
    const std::string msg = message_of("60:1:kill:9999");
    EXPECT_NE(msg.find("field 4 (\"9999\")"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[1, 4096]"), std::string::npos) << msg;
  }
  {
    const std::string msg = message_of("60:1:kill");
    EXPECT_NE(msg.find("3 fields"), std::string::npos) << msg;
  }
}

TEST(EffectiveDuration, StretchesByMeanSpeedWithExactBaselineGuard) {
  ModuleState state;
  state.batch_duration = 10000;
  state.mean_speed = 1.0;
  EXPECT_EQ(EffectiveBatchDuration(state), 10000);
  state.mean_speed = 0.5;
  EXPECT_EQ(EffectiveBatchDuration(state), 20000);
  state.mean_speed = 0.75;
  EXPECT_EQ(EffectiveBatchDuration(state), 13333);
}

// --- Heterogeneous execution through the simulator ------------------------

TEST(HeterogeneousSim, HalfSpeedBackendDoublesExecutionDuration) {
  // One worker drawn from a grade-0.5 catalog: every batch takes twice the
  // profiled duration (eye_tracking d(1) = 7 ms).
  NaivePolicy policy;
  RuntimeOptions options;
  options.fixed_workers = {1};
  PipelineRuntime rt(OneModule({Grade("slow", 0.5)}), options, &policy, 10.0);
  rt.RunTrace({0});
  ASSERT_EQ(rt.requests().size(), 1u);
  const HopRecord& hop = rt.requests()[0]->hops[0];
  EXPECT_EQ(hop.ExecDuration(), 2 * 7 * kUsPerMs);
}

TEST(HeterogeneousSim, SyncPublishesEffectiveUnits) {
  NaivePolicy policy;
  RuntimeOptions options;
  options.fixed_workers = {2};  // Grades 1.0 and 0.5 round-robin.
  PipelineRuntime rt(OneModule({Grade("fast", 1.0), Grade("slow", 0.5)}), options, &policy,
                     10.0);
  rt.RunTrace({0, 1000, 2000});
  const ModuleState& state = rt.board().Get(0);
  EXPECT_EQ(state.num_workers, 2);
  EXPECT_DOUBLE_EQ(state.effective_units, 1.5);
  EXPECT_DOUBLE_EQ(state.mean_speed, 0.75);
}

TEST(HeterogeneousSim, FleetEventsKillAndRecoverWorkers) {
  // Kill the only initial worker at 1 s, add a replacement at 2 s (cold
  // start 1 s -> active at ~3 s): requests sent after recovery complete,
  // requests in the hole are dropped, and nothing dangles.
  NaivePolicy policy;
  RuntimeOptions options;
  options.fixed_workers = {1};
  options.cold_start = 1 * kUsPerSec;
  options.fleet_events = ParseFaultSchedule("1:0:kill:1,2:0:add:1");
  PipelineRuntime rt(OneModule(), options, &policy, 10.0);
  std::vector<SimTime> arrivals;
  for (int i = 0; i < 50; ++i) {
    arrivals.push_back(i * 100 * kUsPerMs);  // 10 req/s for 5 s.
  }
  rt.RunTrace(arrivals);
  ASSERT_EQ(rt.requests().size(), 50u);
  std::size_t dropped = 0;
  std::size_t completed_after_recovery = 0;
  for (const RequestPtr& req : rt.requests()) {
    if (req->fate == RequestFate::kDropped) {
      ++dropped;
    } else if (req->Good() && req->sent >= SecToUs(3)) {
      ++completed_after_recovery;
    }
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(completed_after_recovery, 10u);
  // The fleet log shows the whole story: cold, active, failed, cold, active.
  const auto log = rt.fleet().transitions();
  ASSERT_GE(log.size(), 5u);
  EXPECT_EQ(log[2].to, BackendState::kFailed);
  EXPECT_EQ(log[2].at, SecToUs(1));
  EXPECT_EQ(log[3].to, BackendState::kColdStarting);
  EXPECT_EQ(log[4].to, BackendState::kActive);
  EXPECT_EQ(log[4].at, SecToUs(3));  // 2 s event + 1 s cold start.
}

}  // namespace
}  // namespace pard