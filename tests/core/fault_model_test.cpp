#include "core/fault_model.hpp"

#include <gtest/gtest.h>

#include "core/paper.hpp"

namespace rtft::core {
namespace {

using namespace rtft::literals;

/// Job `job`'s cost for task `id` under `plan`, as the engine resolves it.
Duration job_cost(const FaultPlan& plan, sched::TaskId id, std::int64_t job) {
  const sched::TaskSet& ts = paper::table2_system();
  return plan.cost_spec_for(ts, id).resolve(ts[id].cost, job);
}

TEST(FaultPlan, OverrunAppliesOnlyToTargetJob) {
  FaultPlan plan;
  plan.add_overrun("tau1", 5, 40_ms);
  EXPECT_EQ(job_cost(plan, 0, 4), 29_ms);
  EXPECT_EQ(job_cost(plan, 0, 5), 69_ms);
  EXPECT_EQ(job_cost(plan, 0, 6), 29_ms);
}

TEST(FaultPlan, OtherTasksUnaffected) {
  FaultPlan plan;
  plan.add_overrun("tau1", 5, 40_ms);
  EXPECT_EQ(plan.cost_spec_for(paper::table2_system(), 1).kind,
            rt::CostKind::kNominal);
  EXPECT_EQ(plan.cost_spec_for(paper::table2_system(), 2).kind,
            rt::CostKind::kNominal);
}

TEST(FaultPlan, MultipleFaultsAccumulate) {
  FaultPlan plan;
  plan.add_overrun("tau1", 2, 10_ms);
  plan.add_overrun("tau1", 2, 5_ms);
  plan.add_overrun("tau1", 3, 1_ms);
  EXPECT_EQ(job_cost(plan, 0, 2), 44_ms);
  EXPECT_EQ(job_cost(plan, 0, 3), 30_ms);
  EXPECT_EQ(job_cost(plan, 0, 4), 29_ms);
}

TEST(FaultPlan, UnderrunSupportedAndFlooredAtOneNanosecond) {
  FaultPlan plan;
  plan.add_overrun("tau1", 0, Duration::ms(-10));  // cost 19 ms
  plan.add_overrun("tau1", 1, Duration::ms(-100)); // would go negative
  EXPECT_EQ(job_cost(plan, 0, 0), 19_ms);
  EXPECT_EQ(job_cost(plan, 0, 1), 1_ns);
}

TEST(FaultPlan, CostSpecForIsNominalWithoutMatchingFaults) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.cost_spec_for(paper::table2_system(), 0).kind,
            rt::CostKind::kNominal);
  FaultPlan other;
  other.add_overrun("tau2", 0, 1_ms);
  EXPECT_EQ(other.cost_spec_for(paper::table2_system(), 0).kind,
            rt::CostKind::kNominal);
}

TEST(FaultPlan, CostSpecForMatchesTheClosureOracle) {
  // The oracle is the fault model's original closure: nominal cost plus
  // every delta naming the job, in plan order, floored at 1 ns.
  // Single-job plans flatten to kFixedOverrunAtJob; multi-job plans
  // resolve through a kCustom closure over the coalesced deltas. Either
  // way the resolved per-job costs must equal the oracle's.
  const sched::TaskSet& ts = paper::table2_system();
  const Duration nominal = ts[0].cost;
  const auto oracle = [&](const FaultPlan& plan, std::int64_t job) {
    Duration cost = nominal;
    for (const FaultSpec& f : plan.faults()) {
      if (f.task == ts[0].name && f.job_index == job) cost += f.extra_cost;
    }
    return cost < Duration::ns(1) ? Duration::ns(1) : cost;
  };
  FaultPlan single;
  single.add_overrun("tau1", 5, 40_ms);
  single.add_overrun("tau1", 5, 2_ms);  // accumulates on the same job
  FaultPlan multi;
  multi.add_overrun("tau1", 1, 10_ms);
  multi.add_overrun("tau1", 4, Duration::ms(-100));  // floors at 1 ns
  multi.add_overrun("tau2", 1, 5_ms);                // another task
  multi.add_overrun("tau1", 1, Duration::ms(-3));    // coalesces on job 1
  multi.add_overrun("tau1", 4, 200_ms);  // summed before the floor: 129 ms
  for (const FaultPlan* plan : {&single, &multi}) {
    const rt::CostSpec spec = plan->cost_spec_for(ts, 0);
    for (std::int64_t job = 0; job <= 8; ++job) {
      EXPECT_EQ(spec.resolve(nominal, job), oracle(*plan, job))
          << "job " << job;
    }
  }
  EXPECT_EQ(single.cost_spec_for(ts, 0).kind, rt::CostKind::kFixedOverrunAtJob);
  EXPECT_EQ(multi.cost_spec_for(ts, 0).kind, rt::CostKind::kCustom);
}

TEST(FaultPlan, ValidatesTaskNames) {
  FaultPlan plan;
  plan.add_overrun("ghost", 0, 1_ms);
  EXPECT_THROW(plan.validate_against(paper::table2_system()),
               ContractViolation);
}

TEST(FaultPlan, RejectsInvalidSpecs) {
  FaultPlan plan;
  EXPECT_THROW(plan.add(FaultSpec{"", 0, 1_ms}), ContractViolation);
  EXPECT_THROW(plan.add(FaultSpec{"t", -1, 1_ms}), ContractViolation);
}

}  // namespace
}  // namespace rtft::core
