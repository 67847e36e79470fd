#include "sched/task.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "sched/response_time.hpp"
#include "support/paper_systems.hpp"
#include "support/task_set_copies.hpp"

namespace rtft::sched {
namespace {

using rtft::testsupport::table2_system;
using rtft::testsupport::with_all_costs_inflated;
using rtft::testsupport::with_cost;
using rtft::testsupport::with_priority;
using namespace rtft::literals;

TaskParams valid_task(std::string name = "t") {
  return TaskParams{std::move(name), 10, 1_ms, 10_ms, 10_ms,
                    Duration::zero()};
}

TEST(TaskSetValidation, AcceptsValidTask) {
  TaskSet ts;
  EXPECT_EQ(ts.add(valid_task()), 0u);
  EXPECT_EQ(ts.size(), 1u);
}

TEST(TaskSetValidation, RejectsEmptyName) {
  TaskParams p = valid_task("");
  EXPECT_THROW(validate_params(p), ContractViolation);
}

TEST(TaskSetValidation, RejectsNonPositiveParameters) {
  {
    TaskParams p = valid_task();
    p.period = Duration::zero();
    EXPECT_THROW(validate_params(p), ContractViolation);
  }
  {
    TaskParams p = valid_task();
    p.cost = Duration::zero();
    EXPECT_THROW(validate_params(p), ContractViolation);
  }
  {
    TaskParams p = valid_task();
    p.deadline = Duration::ms(-1);
    EXPECT_THROW(validate_params(p), ContractViolation);
  }
  {
    TaskParams p = valid_task();
    p.offset = Duration::ms(-1);
    EXPECT_THROW(validate_params(p), ContractViolation);
  }
}

TEST(TaskSetValidation, RejectsDuplicateNames) {
  TaskSet ts;
  ts.add(valid_task("same"));
  EXPECT_THROW(ts.add(valid_task("same")), ContractViolation);
}

TEST(TaskSet, FindByName) {
  const TaskSet ts = table2_system();
  EXPECT_EQ(ts.find("tau2"), 1u);
  EXPECT_TRUE(ts.contains("tau3"));
  EXPECT_FALSE(ts.contains("tau4"));
  EXPECT_THROW((void)ts.find("tau4"), ContractViolation);
}

TEST(TaskSet, IndexOutOfRangeThrows) {
  const TaskSet ts = table2_system();
  EXPECT_THROW((void)ts[3], ContractViolation);
}

/// Task `id`'s interferers as the analyses see them: its priority view's
/// prefix, without the task itself.
std::vector<TaskId> interferers_of(const TaskSet& ts, TaskId id) {
  const PriorityView view(ts);
  const std::size_t pos = view.position(id);
  std::vector<TaskId> out;
  for (std::size_t k = 0; k < view.interferer_end(pos); ++k) {
    if (k != pos) out.push_back(view.id(k));
  }
  return out;
}

TEST(TaskSet, InterferersFollowPaperHpDefinition) {
  const TaskSet ts = table2_system();
  // tau1 (P=20) has no interferer; tau3 (P=16) is interfered by both.
  EXPECT_TRUE(interferers_of(ts, 0).empty());
  EXPECT_EQ(interferers_of(ts, 1), (std::vector<TaskId>{0}));
  EXPECT_EQ(interferers_of(ts, 2), (std::vector<TaskId>{0, 1}));
}

TEST(TaskSet, EqualPrioritiesInterfereMutually) {
  TaskSet ts;
  ts.add(valid_task("a"));
  ts.add(valid_task("b"));  // same priority 10
  EXPECT_EQ(interferers_of(ts, 0), (std::vector<TaskId>{1}));
  EXPECT_EQ(interferers_of(ts, 1), (std::vector<TaskId>{0}));
}

TEST(TaskSet, PriorityViewOfASubsetKeepsOriginalIds) {
  TaskSet ts;
  for (const char* name : {"a", "b", "c", "d"}) ts.add(valid_task(name));
  TaskParams top = valid_task("top");
  top.priority = 20;
  ts.add(top);
  PriorityView view;
  const std::vector<TaskId> ids{3, 4, 1};
  view.assign(ts, ids);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.id(0), 4u);  // highest priority first, then by TaskId.
  EXPECT_EQ(view.id(1), 1u);
  EXPECT_EQ(view.id(2), 3u);
  EXPECT_EQ(view.interferer_end(0), 1u);
  EXPECT_EQ(view.interferer_end(1), 3u);  // the tied pair shares a prefix.
  EXPECT_EQ(view.interferer_end(2), 3u);
  EXPECT_THROW((void)view.position(0), ContractViolation);
}

TEST(TaskSet, ByPriorityDescIsStable) {
  TaskSet ts;
  TaskParams a = valid_task("a");
  a.priority = 5;
  TaskParams b = valid_task("b");
  b.priority = 9;
  TaskParams c = valid_task("c");
  c.priority = 5;
  ts.add(a);
  ts.add(b);
  ts.add(c);
  EXPECT_EQ(ts.by_priority_desc(), (std::vector<TaskId>{1, 0, 2}));
}

TEST(TaskSet, UtilizationOfPaperSystem) {
  // 29/200 + 29/250 + 29/1500 = 0.145 + 0.116 + 0.01933...
  EXPECT_NEAR(table2_system().utilization(), 0.2803, 1e-3);
}

TEST(TaskSet, WithAllCostsInflated) {
  const TaskSet inflated = with_all_costs_inflated(table2_system(), 11_ms);
  for (TaskId i = 0; i < inflated.size(); ++i) {
    EXPECT_EQ(inflated[i].cost, 40_ms);
    EXPECT_EQ(inflated[i].period, table2_system()[i].period);
  }
}

TEST(TaskSet, WithCostReplacesOneTask) {
  const TaskSet modified = with_cost(table2_system(), 0, 62_ms);
  EXPECT_EQ(modified[0].cost, 62_ms);
  EXPECT_EQ(modified[1].cost, 29_ms);
  EXPECT_EQ(modified[2].cost, 29_ms);
}

TEST(TaskSet, WithoutRemovesTask) {
  const TaskSet reduced = table2_system().without(1);
  ASSERT_EQ(reduced.size(), 2u);
  EXPECT_EQ(reduced[0].name, "tau1");
  EXPECT_EQ(reduced[1].name, "tau3");
}

TEST(TaskSet, WithPriorityReplacesPriority) {
  const TaskSet modified = with_priority(table2_system(), 2, 25);
  EXPECT_EQ(modified[2].priority, 25);
  // tau3 now outranks everyone.
  EXPECT_EQ(modified.by_priority_desc().front(), 2u);
}

TEST(TaskParams, UtilizationIsCostOverPeriod) {
  EXPECT_DOUBLE_EQ(valid_task().utilization(), 0.1);
}

}  // namespace
}  // namespace rtft::sched
