#include "sched/allowance.hpp"

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "sched/feasibility.hpp"
#include "support/paper_systems.hpp"
#include "support/random_sets.hpp"
#include "support/task_set_copies.hpp"

namespace rtft::sched {
namespace {

using rtft::testsupport::make_random_task_set;
using rtft::testsupport::table1_system;
using rtft::testsupport::table2_system;
using rtft::testsupport::with_all_costs_inflated;
using rtft::testsupport::with_cost;
using namespace rtft::literals;

// ---------------------------------------------------------------------------
// Paper Table 2 / Table 3 values.
// ---------------------------------------------------------------------------

TEST(PaperEquitableAllowance, AllowanceIsElevenMilliseconds) {
  const EquitableAllowance a = equitable_allowance(table2_system());
  ASSERT_TRUE(a.feasible_at_zero);
  EXPECT_EQ(a.allowance, 11_ms);
}

TEST(PaperEquitableAllowance, InflatedWcrtsMatchTable3) {
  // Table 3: WCRT1+11 = 40, WCRT2+22 = 80, WCRT3+33 = 120.
  const EquitableAllowance a = equitable_allowance(table2_system());
  ASSERT_EQ(a.inflated_wcrt.size(), 3u);
  EXPECT_EQ(a.inflated_wcrt[0], 40_ms);
  EXPECT_EQ(a.inflated_wcrt[1], 80_ms);
  EXPECT_EQ(a.inflated_wcrt[2], 120_ms);
}

TEST(PaperSystemAllowance, BudgetIsThirtyThreeMilliseconds) {
  // §6.5: "all the system time available in the worst execution case,
  // that is to say thirty three milliseconds".
  const SystemAllowance s = system_allowance(table2_system());
  ASSERT_TRUE(s.feasible_at_zero);
  EXPECT_EQ(s.budget, 33_ms);
  EXPECT_EQ(s.beneficiary, 0u);  // τ1, the highest priority
}

TEST(PaperSystemAllowance, StopThresholdsAreWcrtPlusBudget) {
  const SystemAllowance s = system_allowance(table2_system());
  ASSERT_EQ(s.stop_thresholds.size(), 3u);
  EXPECT_EQ(s.stop_thresholds[0], 62_ms);   // 29 + 33
  EXPECT_EQ(s.stop_thresholds[1], 91_ms);   // 58 + 33
  EXPECT_EQ(s.stop_thresholds[2], 120_ms);  // 87 + 33
}

// ---------------------------------------------------------------------------
// Semantics and edge cases.
// ---------------------------------------------------------------------------

TEST(EquitableAllowance, InfeasibleSystemReportsNotFeasibleAtZero) {
  const EquitableAllowance a = equitable_allowance(table1_system());
  EXPECT_FALSE(a.feasible_at_zero);
}

TEST(EquitableAllowance, MillisecondGranularityMatchesExactSearch) {
  AllowanceOptions opts;
  opts.granularity = 1_ms;
  const EquitableAllowance coarse = equitable_allowance(table2_system(), opts);
  const EquitableAllowance exact = equitable_allowance(table2_system());
  EXPECT_EQ(coarse.allowance, exact.allowance);  // boundary is at 11 ms
}

TEST(EquitableAllowance, ZeroSlackSystemGetsZeroAllowance) {
  // Task with cost == deadline: no allowance possible.
  TaskSet ts;
  ts.add(TaskParams{"tight", 5, 10_ms, 20_ms, 10_ms, Duration::zero()});
  const EquitableAllowance a = equitable_allowance(ts);
  ASSERT_TRUE(a.feasible_at_zero);
  EXPECT_EQ(a.allowance, Duration::zero());
}

TEST(EquitableAllowance, EmptySetThrows) {
  EXPECT_THROW((void)equitable_allowance(TaskSet{}), ContractViolation);
}

TEST(SystemAllowance, InfeasibleSystemGivesZero) {
  const SystemAllowance s = system_allowance(table1_system());
  EXPECT_FALSE(s.feasible_at_zero);
  EXPECT_EQ(s.budget, Duration::zero());
}

TEST(SystemAllowance, NominalWcrtsReported) {
  const SystemAllowance s = system_allowance(table2_system());
  ASSERT_EQ(s.nominal_wcrt.size(), 3u);
  EXPECT_EQ(s.nominal_wcrt[0], 29_ms);
  EXPECT_EQ(s.nominal_wcrt[1], 58_ms);
  EXPECT_EQ(s.nominal_wcrt[2], 87_ms);
}

// ---------------------------------------------------------------------------
// Properties over random task sets: maximality of the searched values.
// ---------------------------------------------------------------------------

class AllowancePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AllowancePropertyTest, EquitableAllowanceIsMaximal) {
  Rng rng(GetParam());
  RandomTaskSetSpec spec;
  spec.tasks = 1 + static_cast<std::size_t>(rng.next_in(1, 5));
  spec.total_utilization = 0.3 + 0.4 * rng.next_double();
  const TaskSet ts = make_random_task_set(rng, spec);
  if (!is_feasible(ts)) GTEST_SKIP() << "random set infeasible";

  AllowanceOptions opts;
  opts.granularity = 100_us;
  const EquitableAllowance a = equitable_allowance(ts, opts);
  ASSERT_TRUE(a.feasible_at_zero);
  // Feasible at A, infeasible at A + granularity.
  EXPECT_TRUE(is_feasible(with_all_costs_inflated(ts, a.allowance)));
  EXPECT_FALSE(is_feasible(
      with_all_costs_inflated(ts, a.allowance + opts.granularity)));
}

TEST_P(AllowancePropertyTest, SystemBudgetIsMaximal) {
  Rng rng(GetParam() ^ 0x5a5a5a);
  RandomTaskSetSpec spec;
  spec.tasks = 1 + static_cast<std::size_t>(rng.next_in(1, 5));
  spec.total_utilization = 0.3 + 0.4 * rng.next_double();
  const TaskSet ts = make_random_task_set(rng, spec);
  if (!is_feasible(ts)) GTEST_SKIP() << "random set infeasible";

  AllowanceOptions opts;
  opts.granularity = 100_us;
  const TaskId top = ts.by_priority_desc().front();
  const Duration b = system_allowance(ts, opts).budget;
  EXPECT_TRUE(is_feasible(with_cost(ts, top, ts[top].cost + b)));
  EXPECT_FALSE(is_feasible(
      with_cost(ts, top, ts[top].cost + b + opts.granularity)));
}

TEST_P(AllowancePropertyTest, SystemBudgetAtLeastEquitableAllowance) {
  // Granting everything to one task can never be worse than the per-task
  // equitable share.
  Rng rng(GetParam() ^ 0xf00d);
  RandomTaskSetSpec spec;
  spec.tasks = 2 + static_cast<std::size_t>(rng.next_in(0, 4));
  spec.total_utilization = 0.3 + 0.4 * rng.next_double();
  const TaskSet ts = make_random_task_set(rng, spec);
  if (!is_feasible(ts)) GTEST_SKIP() << "random set infeasible";

  AllowanceOptions opts;
  opts.granularity = 100_us;
  const EquitableAllowance a = equitable_allowance(ts, opts);
  const SystemAllowance s = system_allowance(ts, opts);
  EXPECT_GE(s.budget, a.allowance);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllowancePropertyTest,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace rtft::sched
