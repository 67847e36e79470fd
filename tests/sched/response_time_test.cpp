#include "sched/response_time.hpp"

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
using rtft::testsupport::with_cost;
using namespace rtft::literals;

// ---------------------------------------------------------------------------
// Paper Table 1 / Figure 1: the worst job is not the critical-instant job.
// ---------------------------------------------------------------------------

TEST(PaperTable1, Tau1RespondsInItsCost) {
  const TaskSet ts = table1_system();
  const RtaResult r = response_time(ts, 0);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.wcrt, 3_ms);
  EXPECT_EQ(r.worst_job, 0);
}

TEST(PaperTable1, Tau2WorstCaseIsSecondJob) {
  const TaskSet ts = table1_system();
  RtaOptions opts;
  opts.record_jobs = true;
  const RtaResult r = response_time(ts, 1, opts);
  ASSERT_TRUE(r.bounded);
  // The busy period spans three jobs with responses 5, 6, 4 ms — the
  // worst response belongs to the *second* job, which is exactly the
  // point of the paper's Figure 1.
  ASSERT_EQ(r.jobs.size(), 3u);
  EXPECT_EQ(r.jobs[0].response, 5_ms);
  EXPECT_EQ(r.jobs[1].response, 6_ms);
  EXPECT_EQ(r.jobs[2].response, 4_ms);
  EXPECT_EQ(r.wcrt, 6_ms);
  EXPECT_EQ(r.worst_job, 1);
  EXPECT_EQ(r.jobs_examined, 3);
}

TEST(PaperTable1, ClassicFixedPointUnderestimatesTau2) {
  // The classic single-job analysis returns 5 ms — valid only when the
  // response fits in the period, which it does not here (5 > 4).
  const TaskSet ts = table1_system();
  const auto classic = classic_response_time(ts, 1);
  ASSERT_TRUE(classic.has_value());
  EXPECT_EQ(*classic, 5_ms);
  EXPECT_LT(*classic, response_time(ts, 1).wcrt);
}

// ---------------------------------------------------------------------------
// Paper Table 2: the evaluated system.
// ---------------------------------------------------------------------------

TEST(PaperTable2, WorstCaseResponseTimesAre29_58_87) {
  const TaskSet ts = table2_system();
  EXPECT_EQ(response_time(ts, 0).wcrt, 29_ms);
  EXPECT_EQ(response_time(ts, 1).wcrt, 58_ms);
  EXPECT_EQ(response_time(ts, 2).wcrt, 87_ms);
}

TEST(PaperTable2, AllWorstCasesAtCriticalInstantJob) {
  const TaskSet ts = table2_system();
  for (TaskId i = 0; i < ts.size(); ++i) {
    const RtaResult r = response_time(ts, i);
    ASSERT_TRUE(r.bounded);
    EXPECT_EQ(r.worst_job, 0);
  }
}

TEST(PaperTable2, ClassicAndGeneralAgree) {
  const TaskSet ts = table2_system();
  for (TaskId i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(*classic_response_time(ts, i), response_time(ts, i).wcrt);
  }
}

// ---------------------------------------------------------------------------
// Structural cases.
// ---------------------------------------------------------------------------

TEST(ResponseTime, SingleTaskIsItsCost) {
  TaskSet ts;
  ts.add(TaskParams{"solo", 5, 7_ms, 50_ms, 50_ms, Duration::zero()});
  EXPECT_EQ(response_time(ts, 0).wcrt, 7_ms);
}

TEST(ResponseTime, EqualPriorityTasksInterfere) {
  // Two same-priority tasks: each sees the other as an interferer, per
  // the paper's HP(S) ("higher or equal priority").
  TaskSet ts;
  ts.add(TaskParams{"a", 5, 2_ms, 10_ms, 10_ms, Duration::zero()});
  ts.add(TaskParams{"b", 5, 3_ms, 10_ms, 10_ms, Duration::zero()});
  EXPECT_EQ(response_time(ts, 0).wcrt, 5_ms);
  EXPECT_EQ(response_time(ts, 1).wcrt, 5_ms);
}

TEST(ResponseTime, OverloadedInterferersReportedUnbounded) {
  TaskSet ts;
  ts.add(TaskParams{"hog", 9, 9_ms, 10_ms, 10_ms, Duration::zero()});
  ts.add(TaskParams{"low", 1, 5_ms, 20_ms, 20_ms, Duration::zero()});
  // Combined load of {hog, low} = 0.9 + 0.25 > 1.
  const RtaResult r = response_time(ts, 1);
  EXPECT_FALSE(r.bounded);
}

TEST(ResponseTime, ExactlyFullUtilizationTerminates) {
  // U = 1 with harmonic periods: the busy period closes exactly at the
  // period boundary; the analysis must terminate and report 2 + 2 = 4.
  TaskSet ts;
  ts.add(TaskParams{"hi", 9, 2_ms, 4_ms, 4_ms, Duration::zero()});
  ts.add(TaskParams{"lo", 1, 2_ms, 4_ms, 4_ms, Duration::zero()});
  const RtaResult r = response_time(ts, 1);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.wcrt, 4_ms);
}

TEST(ResponseTime, MaxJobsGuardReportsUnbounded) {
  // Arbitrary-deadline task whose busy period is long: a tiny job cap
  // must end the analysis with bounded == false rather than hang.
  TaskSet ts;
  ts.add(TaskParams{"hi", 9, 5_ms, 10_ms, 10_ms, Duration::zero()});
  ts.add(TaskParams{"lo", 1, 499_us, 1_ms, 100_ms, Duration::zero()});
  RtaOptions opts;
  opts.max_jobs = 2;
  const RtaResult r = response_time(ts, 1, opts);
  EXPECT_FALSE(r.bounded);
  EXPECT_EQ(r.jobs_examined, 2);
}

TEST(ResponseTime, RecordedJobsRespectCap) {
  const TaskSet ts = table1_system();
  RtaOptions opts;
  opts.record_jobs = true;
  opts.max_recorded_jobs = 1;
  const RtaResult r = response_time(ts, 1, opts);
  EXPECT_EQ(r.jobs.size(), 1u);
  EXPECT_EQ(r.jobs_examined, 3);
}

TEST(ResponseTime, InvalidTaskIdThrows) {
  const TaskSet ts = table1_system();
  EXPECT_THROW((void)response_time(ts, 5), ContractViolation);
}

TEST(ResponseTimes, ReturnsAllTasksInOrder) {
  const auto all = response_times(table2_system());
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].wcrt, 29_ms);
  EXPECT_EQ(all[1].wcrt, 58_ms);
  EXPECT_EQ(all[2].wcrt, 87_ms);
}

// ---------------------------------------------------------------------------
// Properties over random task sets.
// ---------------------------------------------------------------------------

class RtaPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RtaPropertyTest, WcrtAtLeastCostAndMonotoneInCost) {
  Rng rng(GetParam());
  RandomTaskSetSpec spec;
  spec.tasks = 1 + static_cast<std::size_t>(rng.next_in(1, 7));
  spec.total_utilization = 0.5 + 0.3 * rng.next_double();
  const TaskSet ts = make_random_task_set(rng, spec);

  for (TaskId i = 0; i < ts.size(); ++i) {
    const RtaResult r = response_time(ts, i);
    if (!r.bounded) continue;
    EXPECT_GE(r.wcrt, ts[i].cost) << "task " << i;

    // Inflating the highest-priority task's cost cannot shrink anyone's
    // WCRT.
    const TaskId top = ts.by_priority_desc().front();
    const TaskSet inflated = with_cost(ts, top, ts[top].cost + 1_ms);
    const RtaResult r2 = response_time(inflated, i);
    if (r2.bounded) {
      EXPECT_GE(r2.wcrt, r.wcrt) << "task " << i;
    }
  }
}

TEST_P(RtaPropertyTest, ClassicEqualsGeneralWhenFirstJobClosesBusyPeriod) {
  Rng rng(GetParam() ^ 0xabcdef);
  RandomTaskSetSpec spec;
  spec.tasks = 1 + static_cast<std::size_t>(rng.next_in(1, 7));
  spec.total_utilization = 0.4 + 0.3 * rng.next_double();
  const TaskSet ts = make_random_task_set(rng, spec);

  for (TaskId i = 0; i < ts.size(); ++i) {
    const RtaResult general = response_time(ts, i);
    if (!general.bounded) continue;
    if (general.jobs_examined == 1) {
      const auto classic = classic_response_time(ts, i);
      ASSERT_TRUE(classic.has_value());
      EXPECT_EQ(*classic, general.wcrt);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtaPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace rtft::sched
