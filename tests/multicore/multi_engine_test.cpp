// MultiEngine fail-over semantics, pinned with hand-built placements:
// the lost-job audit at the death instant, the backup release-phase
// rule (next primary release *strictly after* the failure), the verdict
// taxonomy, and the lockstep sync-quantum invariance.
#include "multicore/multi_engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/assert.hpp"
#include "multicore/partition.hpp"
#include "runtime/engine.hpp"

namespace rtft::multicore {
namespace {

sched::TaskParams simple_task(const char* name, int priority, Duration cost,
                              Duration period) {
  sched::TaskParams p;
  p.name = name;
  p.priority = priority;
  p.cost = cost;
  p.period = period;
  p.deadline = period;
  return p;
}

rt::EngineOptions quiet_options(Duration horizon) {
  rt::EngineOptions o;
  o.horizon = Instant::epoch() + horizon;
  return o;
}

/// Advances `fleet` to `stop_at` in global lockstep ticks of `quantum`
/// (one segment when it is zero).
void step_to(MultiEngine& fleet, Instant stop_at, Duration quantum) {
  for (Instant t = fleet.now() + quantum;
       quantum.is_positive() && t < stop_at; t = t + quantum) {
    fleet.run_until(t);
  }
  fleet.run_until(stop_at);
}

Placement one_task_placement(std::size_t primary, std::size_t backup) {
  Placement p;
  p.feasible = true;
  p.primary = {primary};
  p.backup = {backup};
  return p;
}

TEST(MultiEngine, KillingMidJobLosesThePendingJob) {
  // cost 4ms, period 10ms: at t=2ms job 0 is still running on the dying
  // core, so it is lost; the backup picks up at the next release, 10ms.
  sched::TaskSet ts;
  ts.add(simple_task("a", 10, Duration::ms(4), Duration::ms(10)));
  MultiEngine fleet;
  fleet.reset(2, quiet_options(Duration::ms(100)));
  fleet.add_placed(ts, one_task_placement(0, 1));
  fleet.run_until(Instant::epoch() + Duration::ms(2));
  fleet.fail_core(0);
  fleet.run();

  const MultiRunReport r = fleet.report();
  EXPECT_EQ(r.failed_core, 0u);
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_TRUE(r.tasks[0].failed_over);
  EXPECT_EQ(r.tasks[0].lost_jobs, 1);
  EXPECT_EQ(r.tasks[0].misses, 0);
  EXPECT_EQ(r.tasks[0].outcome, FailoverOutcome::kSurvived);
  EXPECT_EQ(r.total_lost_jobs, 1);
  EXPECT_TRUE(r.failover_clean);  // lost != missed: nobody observed it.

  // The backup replica exists on core 1 with first release at 10ms.
  rt::Engine& backup = fleet.core(1);
  ASSERT_EQ(backup.task_count(), 1u);
  EXPECT_EQ(backup.first_release(0), Instant::epoch() + Duration::ms(10));
}

TEST(MultiEngine, KillingBetweenJobsLosesNothing) {
  sched::TaskSet ts;
  ts.add(simple_task("a", 10, Duration::ms(4), Duration::ms(10)));
  MultiEngine fleet;
  fleet.reset(2, quiet_options(Duration::ms(100)));
  fleet.add_placed(ts, one_task_placement(0, 1));
  fleet.run_until(Instant::epoch() + Duration::ms(6));  // job 0 done at 4ms.
  fleet.fail_core(0);
  fleet.run();

  const MultiRunReport r = fleet.report();
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_EQ(r.tasks[0].lost_jobs, 0);
  EXPECT_EQ(r.tasks[0].outcome, FailoverOutcome::kSurvived);
}

TEST(MultiEngine, BackupReleaseIsStrictlyAfterTheFailureInstant) {
  sched::TaskSet ts;
  ts.add(simple_task("a", 10, Duration::ms(1), Duration::ms(10)));
  // Mid-period kill at 25ms -> next release 30ms; kill exactly on a
  // release date (20ms) skips it -> 30ms too, since that release
  // already happened on (and died with) the primary.
  for (const std::int64_t kill_ms : {25, 20}) {
    MultiEngine fleet;
    fleet.reset(2, quiet_options(Duration::ms(100)));
    fleet.add_placed(ts, one_task_placement(0, 1));
    fleet.run_until(Instant::epoch() + Duration::ms(kill_ms));
    fleet.fail_core(0);
    rt::Engine& backup = fleet.core(1);
    ASSERT_EQ(backup.task_count(), 1u) << "kill at " << kill_ms << "ms";
    EXPECT_EQ(backup.first_release(0), Instant::epoch() + Duration::ms(30))
        << "kill at " << kill_ms << "ms";
  }
}

TEST(MultiEngine, MissingBackupYieldsInfeasiblePlacementVerdict) {
  sched::TaskSet ts;
  ts.add(simple_task("a", 10, Duration::ms(1), Duration::ms(10)));
  MultiEngine fleet;
  fleet.reset(2, quiet_options(Duration::ms(100)));
  fleet.add_placed(ts, one_task_placement(0, kNoCore));
  fleet.run_until(Instant::epoch() + Duration::ms(15));
  fleet.fail_core(0);
  fleet.run();

  const MultiRunReport r = fleet.report();
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_FALSE(r.tasks[0].failed_over);
  EXPECT_EQ(r.tasks[0].outcome, FailoverOutcome::kInfeasiblePlacement);
  EXPECT_FALSE(r.failover_clean);
  EXPECT_EQ(r.missed_tasks, 1);
}

TEST(MultiEngine, OverloadedBackupCoreMissesDuringFailover) {
  // Core 1 already runs a high-priority 6ms/10ms task; a's 6ms backup
  // replica cannot also fit in the period, so fail-over must miss.
  sched::TaskSet ts;
  ts.add(simple_task("a", 5, Duration::ms(6), Duration::ms(10)));
  ts.add(simple_task("b", 10, Duration::ms(6), Duration::ms(10)));
  Placement p;
  p.feasible = true;
  p.primary = {0, 1};
  p.backup = {1, 0};
  MultiEngine fleet;
  fleet.reset(2, quiet_options(Duration::ms(100)));
  fleet.add_placed(ts, p);
  fleet.run_until(Instant::epoch() + Duration::ms(15));
  fleet.fail_core(0);
  fleet.run();

  const MultiRunReport r = fleet.report();
  ASSERT_EQ(r.tasks.size(), 2u);
  EXPECT_EQ(r.tasks[0].outcome, FailoverOutcome::kMissedDuringFailover);
  EXPECT_GT(r.tasks[0].misses, 0);
  // b keeps its core and its priority: unaffected.
  EXPECT_EQ(r.tasks[1].outcome, FailoverOutcome::kSurvived);
  EXPECT_FALSE(r.failover_clean);
}

TEST(MultiEngine, DefaultFaultPlanIsAFaultFreeRun) {
  sched::TaskSet ts;
  ts.add(simple_task("a", 10, Duration::ms(2), Duration::ms(10)));
  ts.add(simple_task("b", 9, Duration::ms(2), Duration::ms(20)));
  Placement p;
  p.feasible = true;
  p.primary = {0, 1};
  p.backup = {1, 0};
  const Instant horizon = Instant::epoch() + Duration::ms(100);
  for (const CoreFaultPlan plan :
       {CoreFaultPlan{},             // kNoCore: no fault planned.
        CoreFaultPlan{0, horizon}}) {  // dated at the horizon: ignored.
    MultiEngine fleet;
    fleet.reset(2, quiet_options(Duration::ms(100)));
    fleet.add_placed(ts, p);
    const MultiRunReport r = fleet.run_with_fault(plan);
    EXPECT_EQ(r.failed_core, kNoCore);
    EXPECT_TRUE(r.failover_clean);
    for (const TaskFailoverReport& t : r.tasks) {
      EXPECT_EQ(t.outcome, FailoverOutcome::kSurvived);
      EXPECT_FALSE(t.failed_over);
      EXPECT_EQ(t.lost_jobs, 0);
    }
    EXPECT_EQ(fleet.report().failed_core, kNoCore);  // both cores alive.
  }
}

TEST(MultiEngine, ContractViolations) {
  sched::TaskSet ts;
  ts.add(simple_task("a", 10, Duration::ms(1), Duration::ms(10)));
  MultiEngine fleet;
  EXPECT_THROW(fleet.reset(0, quiet_options(Duration::ms(10))),
               ContractViolation);
  fleet.reset(2, quiet_options(Duration::ms(100)));
  fleet.add_placed(ts, one_task_placement(0, 1));
  EXPECT_THROW(static_cast<void>(fleet.core(2)), ContractViolation);
  EXPECT_THROW(fleet.fail_core(2), ContractViolation);
  fleet.run_until(Instant::epoch() + Duration::ms(10));
  EXPECT_THROW(fleet.run_until(Instant::epoch() + Duration::ms(5)),
               ContractViolation);  // clock cannot run backwards.
  EXPECT_THROW(fleet.run_until(Instant::epoch() + Duration::ms(200)),
               ContractViolation);  // past the horizon.
  fleet.fail_core(0);
  EXPECT_THROW(fleet.fail_core(0), ContractViolation);  // already dead.
}

TEST(MultiEngine, SyncQuantumDoesNotChangeTheRun) {
  // The engines are run_until-segmentation-invariant, so stepping the
  // fleet in 700us global ticks must reproduce the single-segment run
  // bit-for-bit, fault and all.
  sched::TaskSet ts;
  ts.add(simple_task("a", 10, Duration::ms(3), Duration::ms(10)));
  ts.add(simple_task("b", 9, Duration::ms(4), Duration::ms(14)));
  ts.add(simple_task("c", 8, Duration::ms(5), Duration::ms(21)));
  Placement p;
  p.feasible = true;
  p.primary = {0, 1, 0};
  p.backup = {1, 0, 1};
  CoreFaultPlan fault{0, Instant::epoch() + Duration::ms(37)};

  std::vector<MultiRunReport> reports;
  for (const Duration quantum :
       {Duration::zero(), Duration::us(700), Duration::ms(5)}) {
    MultiEngine fleet;
    fleet.reset(2, quiet_options(Duration::ms(200)));
    fleet.add_placed(ts, p);
    // run_with_fault's three steps, with both runs stepped in quanta.
    step_to(fleet, fault.at, quantum);
    fleet.fail_core(fault.core);
    step_to(fleet, fleet.horizon(), quantum);
    reports.push_back(fleet.report());
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    ASSERT_EQ(reports[i].tasks.size(), reports[0].tasks.size());
    EXPECT_EQ(reports[i].total_misses, reports[0].total_misses);
    EXPECT_EQ(reports[i].total_lost_jobs, reports[0].total_lost_jobs);
    EXPECT_EQ(reports[i].failover_clean, reports[0].failover_clean);
    for (std::size_t t = 0; t < reports[0].tasks.size(); ++t) {
      EXPECT_EQ(reports[i].tasks[t].outcome, reports[0].tasks[t].outcome);
      EXPECT_EQ(reports[i].tasks[t].misses, reports[0].tasks[t].misses);
      EXPECT_EQ(reports[i].tasks[t].lost_jobs, reports[0].tasks[t].lost_jobs);
    }
  }
}

}  // namespace
}  // namespace rtft::multicore
