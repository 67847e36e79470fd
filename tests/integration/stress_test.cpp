// Stress suite: random systems, random faults, every policy — each run's
// trace is certified by the validator (single-CPU non-overlap, release
// spacing, fixed-priority compliance) and its bookkeeping cross-checked.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include "core/ft_system.hpp"
#include "core/paper.hpp"
#include "support/random_sets.hpp"
#include "trace/validator.hpp"

namespace rtft {
namespace {

using core::FaultPlan;
using core::FaultTolerantSystem;
using core::FtSystemConfig;
using core::RunReport;
using core::TreatmentPolicy;
using testsupport::make_random_task_set;
using namespace rtft::literals;

TEST(TraceValidation, AllFigureRunsAreClean) {
  for (TreatmentPolicy policy :
       {TreatmentPolicy::kNoDetection, TreatmentPolicy::kDetectOnly,
        TreatmentPolicy::kInstantStop, TreatmentPolicy::kEquitableAllowance,
        TreatmentPolicy::kSystemAllowance,
        TreatmentPolicy::kSystemAllowanceSound}) {
    core::paper::Scenario s = core::paper::figures_scenario(policy);
    const sched::TaskSet tasks = s.config.tasks;
    FaultTolerantSystem sys(std::move(s.config), std::move(s.faults));
    (void)sys.run();
    const trace::ValidationResult v =
        trace::validate_trace(tasks, sys.recorder());
    EXPECT_TRUE(v.ok()) << core::to_string(policy) << "\n" << v.summary();
  }
}

class StressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressTest, RandomFaultsUnderEveryPolicyYieldValidTraces) {
  Rng rng(GetParam());
  RandomTaskSetSpec spec;
  spec.tasks = 2 + static_cast<std::size_t>(rng.next_in(0, 5));
  spec.total_utilization = 0.3 + 0.5 * rng.next_double();
  spec.min_period = Duration::ms(5);
  spec.max_period = Duration::ms(100);
  const sched::TaskSet ts = make_random_task_set(rng, spec);
  if (!sched::is_feasible(ts)) GTEST_SKIP() << "infeasible draw";

  // Random fault mix: up to three overruns on random tasks/jobs.
  FaultPlan faults;
  const std::int64_t fault_count = rng.next_in(1, 3);
  for (std::int64_t f = 0; f < fault_count; ++f) {
    const auto victim = static_cast<sched::TaskId>(
        rng.next_in(0, static_cast<std::int64_t>(ts.size()) - 1));
    faults.add_overrun(ts[victim].name, rng.next_in(0, 5),
                       Duration::ms(rng.next_in(1, 50)));
  }

  for (TreatmentPolicy policy :
       {TreatmentPolicy::kDetectOnly, TreatmentPolicy::kInstantStop,
        TreatmentPolicy::kEquitableAllowance,
        TreatmentPolicy::kSystemAllowanceSound}) {
    FtSystemConfig cfg;
    cfg.tasks = ts;
    cfg.policy = policy;
    cfg.horizon = 800_ms;
    cfg.detector.quantizer.mode = rt::Rounding::kNone;
    FaultPlan faults_copy = faults;
    FaultTolerantSystem sys(std::move(cfg), std::move(faults_copy));
    const RunReport report = sys.run();
    ASSERT_TRUE(report.executed) << core::to_string(policy);

    const trace::ValidationResult v =
        trace::validate_trace(ts, sys.recorder());
    EXPECT_TRUE(v.ok()) << core::to_string(policy) << "\n" << v.summary();

    // Bookkeeping cross-checks: trace counts match engine counters.
    for (std::size_t i = 0; i < report.tasks.size(); ++i) {
      std::int64_t releases = 0;
      std::int64_t ends = 0;
      std::int64_t aborts = 0;
      for (const auto& e : sys.recorder().events()) {
        if (e.task != i) continue;
        if (e.kind == trace::EventKind::kJobRelease) ++releases;
        if (e.kind == trace::EventKind::kJobEnd) ++ends;
        if (e.kind == trace::EventKind::kJobAborted) ++aborts;
      }
      EXPECT_EQ(releases, report.tasks[i].stats.released);
      EXPECT_EQ(ends, report.tasks[i].stats.completed);
      EXPECT_EQ(aborts, report.tasks[i].stats.aborted);
    }
    // Policies that stop tasks: a stopped task must have a detected
    // fault; detect-only never stops anyone.
    for (const auto& t : report.tasks) {
      if (t.stats.stopped) {
        EXPECT_NE(policy, TreatmentPolicy::kDetectOnly) << t.name;
        EXPECT_GE(t.faults_detected, 1) << t.name;
      }
    }
  }
}

TEST_P(StressTest, DeterministicAcrossRepeatedRuns) {
  Rng rng(GetParam() ^ 0x77);
  RandomTaskSetSpec spec;
  spec.tasks = 3;
  spec.total_utilization = 0.6;
  const sched::TaskSet ts = make_random_task_set(rng, spec);
  if (!sched::is_feasible(ts)) GTEST_SKIP() << "infeasible draw";

  const auto run_once = [&] {
    FtSystemConfig cfg;
    cfg.tasks = ts;
    cfg.policy = TreatmentPolicy::kInstantStop;
    cfg.horizon = 500_ms;
    FaultPlan faults;
    faults.add_overrun(ts[0].name, 1, 20_ms);
    FaultTolerantSystem sys(std::move(cfg), std::move(faults));
    (void)sys.run();
    std::vector<std::tuple<std::int64_t, int, std::uint32_t, std::int64_t>>
        out;
    for (const auto& e : sys.recorder().events()) {
      out.emplace_back(e.time.count(), static_cast<int>(e.kind), e.task,
                       e.job);
    }
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace rtft
