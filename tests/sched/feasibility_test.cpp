#include "sched/feasibility.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "support/paper_systems.hpp"

namespace rtft::sched {
namespace {

using rtft::testsupport::table1_system;
using rtft::testsupport::table2_system;
using namespace rtft::literals;

TEST(Analyze, PaperTable2IsFeasible) {
  const FeasibilityReport report = analyze(table2_system());
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.load, LoadVerdict::kBelowOne);
  ASSERT_EQ(report.tasks.size(), 3u);
  EXPECT_EQ(report.tasks[0].wcrt, 29_ms);
  EXPECT_EQ(report.tasks[1].wcrt, 58_ms);
  EXPECT_EQ(report.tasks[2].wcrt, 87_ms);
  for (const TaskVerdict& v : report.tasks) {
    EXPECT_TRUE(v.bounded);
    EXPECT_TRUE(v.meets_deadline);
  }
}

TEST(Analyze, PaperTable1IsInfeasible) {
  // τ2's WCRT (6 ms) exceeds its 2 ms deadline.
  const FeasibilityReport report = analyze(table1_system());
  EXPECT_FALSE(report.feasible);
  EXPECT_TRUE(report.tasks[0].meets_deadline);
  EXPECT_FALSE(report.tasks[1].meets_deadline);
}

TEST(Analyze, OverloadIsInfeasibleRegardlessOfDeadlines) {
  TaskSet ts;
  ts.add(TaskParams{"a", 2, 6_ms, 10_ms, 100_ms, Duration::zero()});
  ts.add(TaskParams{"b", 1, 5_ms, 10_ms, 100_ms, Duration::zero()});
  const FeasibilityReport report = analyze(ts);
  EXPECT_EQ(report.load, LoadVerdict::kAboveOne);
  EXPECT_FALSE(report.feasible);
}

TEST(Analyze, SummaryMentionsEveryTask) {
  const TaskSet ts = table2_system();
  const std::string s = analyze(ts).summary(ts);
  EXPECT_NE(s.find("tau1"), std::string::npos);
  EXPECT_NE(s.find("tau2"), std::string::npos);
  EXPECT_NE(s.find("tau3"), std::string::npos);
  EXPECT_NE(s.find("FEASIBLE"), std::string::npos);
}

TEST(IsFeasible, MatchesAnalyze) {
  EXPECT_TRUE(is_feasible(table2_system()));
  EXPECT_FALSE(is_feasible(table1_system()));
}

TEST(FeasibilityAnalysis, AdmitsUntilSaturation) {
  FeasibilityAnalysis admission;
  // Table 2 tasks are admitted one by one.
  for (const TaskParams& t : table2_system()) {
    EXPECT_TRUE(admission.add(t)) << t.name;
  }
  EXPECT_EQ(admission.task_set().size(), 3u);

  // A heavy interloper that would break τ3's deadline is rejected and the
  // set stays intact.
  TaskParams hog{"hog", 30, 40_ms, 100_ms, 100_ms, Duration::zero()};
  // τ3 would see 29+40 per 100ms window: R = 29+29+29 + 2*40 = 167 > 120.
  EXPECT_FALSE(admission.add(hog));
  EXPECT_EQ(admission.task_set().size(), 3u);
  EXPECT_FALSE(admission.task_set().contains("hog"));
}

TEST(FeasibilityAnalysis, RemovalAllowsReAdmission) {
  FeasibilityAnalysis admission;
  for (const TaskParams& t : table2_system()) ASSERT_TRUE(admission.add(t));

  TaskParams hog{"hog", 30, 40_ms, 100_ms, 100_ms, Duration::zero()};
  ASSERT_FALSE(admission.add(hog));
  // Dropping τ3 frees enough slack for the hog (τ1: 29+40=69<=70;
  // τ2: 69+29+40=138 > 120? — verify by behaviour, not by hand).
  ASSERT_TRUE(admission.remove("tau3"));
  const bool admitted = admission.add(hog);
  EXPECT_EQ(admitted, is_feasible(admission.task_set()) &&
                          admission.task_set().contains("hog"));
}

TEST(FeasibilityAnalysis, RemoveUnknownReturnsFalse) {
  FeasibilityAnalysis admission;
  EXPECT_FALSE(admission.remove("ghost"));
}

TEST(FeasibilityAnalysis, ThrowingAddLeavesTheSetUnchanged) {
  // The strong guarantee: a throwing mutation must be a no-op, because a
  // long-lived admission object keeps serving after rejecting bad input.
  FeasibilityAnalysis admission;
  for (const TaskParams& t : table2_system()) ASSERT_TRUE(admission.add(t));

  // Invalid parameters (zero period) throw out of validation.
  EXPECT_THROW(admission.add(TaskParams{"bad", 5, 1_ms, Duration::zero(),
                                        10_ms, Duration::zero()}),
               ContractViolation);
  // Duplicate name throws after validation.
  EXPECT_THROW(
      admission.add(TaskParams{"tau1", 5, 1_ms, 10_ms, 10_ms,
                               Duration::zero()}),
      ContractViolation);

  // The set is exactly what it was before the two throws.
  EXPECT_EQ(admission.task_set().size(), 3u);
  EXPECT_FALSE(admission.task_set().contains("bad"));
  EXPECT_TRUE(admission.report().feasible);
  // ...and the object still works: a legitimate admission succeeds.
  EXPECT_TRUE(admission.add(
      TaskParams{"late", 1, 1_ms, 400_ms, 400_ms, Duration::zero()}));
}

TEST(FeasibilityAnalysis, RemoveUnknownNeverThrowsAndPreservesState) {
  FeasibilityAnalysis admission;
  for (const TaskParams& t : table2_system()) ASSERT_TRUE(admission.add(t));
  EXPECT_FALSE(admission.remove("ghost"));
  EXPECT_NO_THROW((void)admission.remove("ghost"));
  EXPECT_EQ(admission.task_set().size(), 3u);
  // Removing twice: second call reports "already gone" as false, not a
  // contract violation.
  EXPECT_TRUE(admission.remove("tau2"));
  EXPECT_FALSE(admission.remove("tau2"));
  EXPECT_EQ(admission.task_set().size(), 2u);
}

}  // namespace
}  // namespace rtft::sched
