// End-to-end reproduction of the paper's Figures 3–7 (§6): the Table 2
// system with a +40 ms overrun injected into τ1's job released at
// t = 1000 ms, executed under each treatment policy. Every assertion
// below is a key date or outcome stated or implied by the paper's
// narration; EXPERIMENTS.md records the full mapping.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ft_system.hpp"
#include "core/paper.hpp"

namespace rtft::core {
namespace {

using trace::EventKind;
using namespace rtft::literals;

constexpr Instant at(std::int64_t ms) {
  return Instant::epoch() + Duration::ms(ms);
}

/// Completion date of `task`'s job `job`, or Instant::never().
Instant end_of(const trace::Recorder& rec, std::uint32_t task,
               std::int64_t job) {
  for (const auto& e : rec.events()) {
    if (e.kind == EventKind::kJobEnd && e.task == task && e.job == job) {
      return e.time;
    }
  }
  return Instant::never();
}

Instant abort_of(const trace::Recorder& rec, std::uint32_t task) {
  for (const auto& e : rec.events()) {
    if (e.kind == EventKind::kJobAborted && e.task == task) return e.time;
  }
  return Instant::never();
}

RunReport run_figure(TreatmentPolicy policy, FaultTolerantSystem** out_sys,
                     Duration overrun = paper::kDefaultOverrun) {
  paper::Scenario s = paper::figures_scenario(policy, overrun);
  auto* sys = new FaultTolerantSystem(std::move(s.config),
                                      std::move(s.faults));
  *out_sys = sys;
  return sys->run();
}

class Figure : public ::testing::Test {
 protected:
  ~Figure() override { delete sys_; }
  RunReport run(TreatmentPolicy policy,
                Duration overrun = paper::kDefaultOverrun) {
    return run_figure(policy, &sys_, overrun);
  }
  const trace::Recorder& rec() const { return sys_->recorder(); }
  FaultTolerantSystem* sys_ = nullptr;
};

// ---------------------------------------------------------------------------
// Figure 3 — no detection: τ1 and τ2 end before their deadlines, τ3
// misses. "It is the case we wish to avoid."
// ---------------------------------------------------------------------------

TEST_F(Figure, Fig3NoDetection) {
  const RunReport report = run(TreatmentPolicy::kNoDetection);
  ASSERT_TRUE(report.admitted);
  ASSERT_TRUE(report.executed);

  // The faulty job runs 69 ms: [1000, 1069) — before τ1's deadline 1070.
  EXPECT_EQ(end_of(rec(), 0, paper::kFaultyJobIndex), at(1069));
  // τ2's coincident job is pushed to [1069, 1098) — meets 1120.
  EXPECT_EQ(end_of(rec(), 1, 4), at(1098));
  // τ3's job lands at [1098, 1127) — misses its 1120 deadline.
  EXPECT_EQ(end_of(rec(), 2, 0), at(1127));

  EXPECT_EQ(report.tasks[0].stats.missed, 0);
  EXPECT_EQ(report.tasks[1].stats.missed, 0);
  EXPECT_EQ(report.tasks[2].stats.missed, 1);
  EXPECT_EQ(report.missing_tasks(), std::vector<std::string>{"tau3"});
  // Nothing was detected or stopped.
  EXPECT_EQ(std::ranges::count(rec().events(), EventKind::kDetectorFire,
                               &trace::TraceEvent::kind),
            0);
  for (const auto& t : report.tasks) EXPECT_FALSE(t.stats.stopped);
}

// ---------------------------------------------------------------------------
// Figure 4 — detection without treatment: same execution, detectors fire
// at the quantized WCRTs (30/60/90 → delays of 1/2/3 ms, §6.2).
// ---------------------------------------------------------------------------

TEST_F(Figure, Fig4DetectionWithoutTreatment) {
  const RunReport report = run(TreatmentPolicy::kDetectOnly);
  ASSERT_TRUE(report.executed);

  // Quantization reproduces the paper's observed detector delays.
  EXPECT_EQ(*report.tasks[0].quantized_threshold, 30_ms);  // 29 + 1
  EXPECT_EQ(*report.tasks[1].quantized_threshold, 60_ms);  // 58 + 2
  EXPECT_EQ(*report.tasks[2].quantized_threshold, 90_ms);  // 87 + 3

  // The execution is identical to Figure 3.
  EXPECT_EQ(end_of(rec(), 0, paper::kFaultyJobIndex), at(1069));
  EXPECT_EQ(end_of(rec(), 1, 4), at(1098));
  EXPECT_EQ(end_of(rec(), 2, 0), at(1127));
  EXPECT_EQ(report.missing_tasks(), std::vector<std::string>{"tau3"});

  // All three tasks are flagged in the window: τ1 at 1030 (its own
  // fault), τ2 at 1060 and τ3 at 1090 (inherited lateness).
  std::vector<std::pair<Instant, std::uint32_t>> faults;
  for (const auto& e : rec().events()) {
    if (e.kind == EventKind::kFaultDetected) faults.push_back({e.time, e.task});
  }
  ASSERT_EQ(faults.size(), 3u);
  EXPECT_EQ(faults[0], (std::pair<Instant, std::uint32_t>{at(1030), 0}));
  EXPECT_EQ(faults[1], (std::pair<Instant, std::uint32_t>{at(1060), 1}));
  EXPECT_EQ(faults[2], (std::pair<Instant, std::uint32_t>{at(1090), 2}));
  // Nobody was stopped.
  for (const auto& t : report.tasks) EXPECT_FALSE(t.stats.stopped);
}

// ---------------------------------------------------------------------------
// Figure 5 — instantaneous stop: τ1 stopped at its (quantized) WCRT;
// only τ1 misses; τ2 and τ3 finish early, leaving the CPU free.
// ---------------------------------------------------------------------------

TEST_F(Figure, Fig5InstantStop) {
  const RunReport report = run(TreatmentPolicy::kInstantStop);
  ASSERT_TRUE(report.executed);

  // τ1 stopped when its detector fires at 1000 + 30.
  EXPECT_EQ(abort_of(rec(), 0), at(1030));
  EXPECT_TRUE(report.tasks[0].stats.stopped);
  EXPECT_EQ(report.tasks[0].stats.aborted, 1);

  // τ2 and τ3 then run back to back and meet their deadlines.
  EXPECT_EQ(end_of(rec(), 1, 4), at(1059));
  EXPECT_EQ(end_of(rec(), 2, 0), at(1088));
  EXPECT_EQ(report.tasks[1].stats.missed, 0);
  EXPECT_EQ(report.tasks[2].stats.missed, 0);

  // "The only task to miss its deadline is task τ1."
  EXPECT_EQ(report.missing_tasks(), std::vector<std::string>{"tau1"});
  EXPECT_EQ(report.tasks[0].stats.missed, 1);

  // τ2's job ends at 1059, one millisecond before its detector (1060):
  // no fault is reported for it.
  EXPECT_EQ(report.tasks[1].faults_detected, 0);
  EXPECT_EQ(report.tasks[2].faults_detected, 0);
  EXPECT_EQ(report.tasks[0].faults_detected, 1);
}

// ---------------------------------------------------------------------------
// Figure 6 — equitable allowance (A = 11): τ1 stopped at WCRT+11 = 40
// after release; it got more time than under instant stop; τ2 and τ3
// keep their (unconsumed) allowances and meet their deadlines.
// ---------------------------------------------------------------------------

TEST_F(Figure, Fig6EquitableAllowance) {
  const RunReport report = run(TreatmentPolicy::kEquitableAllowance);
  ASSERT_TRUE(report.executed);

  EXPECT_EQ(report.plan.allowance, 11_ms);
  // Table 3 thresholds are exact multiples of 10 ms: no quantization
  // error.
  EXPECT_EQ(*report.tasks[0].quantized_threshold, 40_ms);
  EXPECT_EQ(*report.tasks[1].quantized_threshold, 80_ms);
  EXPECT_EQ(*report.tasks[2].quantized_threshold, 120_ms);

  // τ1 stopped at 1040 — later than Figure 5's 1030.
  EXPECT_EQ(abort_of(rec(), 0), at(1040));
  EXPECT_TRUE(report.tasks[0].stats.stopped);

  // τ2: [1040, 1069); τ3: [1069, 1098). Both meet their deadlines.
  EXPECT_EQ(end_of(rec(), 1, 4), at(1069));
  EXPECT_EQ(end_of(rec(), 2, 0), at(1098));
  EXPECT_EQ(report.missing_tasks(), std::vector<std::string>{"tau1"});
}

// ---------------------------------------------------------------------------
// Figure 7 — system allowance (B = 33) granted to the first faulty task:
// τ1 is stopped ~33 ms after its WCRT; τ2 and τ3 finish just before
// their deadlines.
// ---------------------------------------------------------------------------

TEST_F(Figure, Fig7SystemAllowanceQuantized) {
  const RunReport report = run(TreatmentPolicy::kSystemAllowance);
  ASSERT_TRUE(report.executed);

  EXPECT_EQ(report.plan.allowance, 33_ms);
  // Raw thresholds 62/91/120 quantize to 60/90/120 on the 10 ms grid.
  EXPECT_EQ(*report.tasks[0].quantized_threshold, 60_ms);
  EXPECT_EQ(*report.tasks[1].quantized_threshold, 90_ms);
  EXPECT_EQ(*report.tasks[2].quantized_threshold, 120_ms);

  EXPECT_EQ(abort_of(rec(), 0), at(1060));
  EXPECT_EQ(end_of(rec(), 1, 4), at(1089));
  // τ3 completes at 1118 — two milliseconds before its 1120 deadline:
  // "they both finish just before their deadlines".
  EXPECT_EQ(end_of(rec(), 2, 0), at(1118));
  EXPECT_EQ(report.missing_tasks(), std::vector<std::string>{"tau1"});
}

TEST_F(Figure, Fig7SystemAllowanceExactTimers) {
  // With an ideal (unquantized) timer the paper's arithmetic is exact:
  // τ1 stopped at 1062 = release + WCRT + B; τ2 ends 1091; τ3 ends
  // exactly at its deadline, 1120.
  paper::Scenario s = paper::figures_scenario(
      TreatmentPolicy::kSystemAllowance, paper::kDefaultOverrun,
      rt::Quantizer{Duration::ms(10), rt::Rounding::kNone});
  FaultTolerantSystem sys(std::move(s.config), std::move(s.faults));
  const RunReport report = sys.run();
  ASSERT_TRUE(report.executed);

  EXPECT_EQ(abort_of(sys.recorder(), 0), at(1062));
  EXPECT_EQ(end_of(sys.recorder(), 1, 4), at(1091));
  EXPECT_EQ(end_of(sys.recorder(), 2, 0), at(1120));
  // Completing exactly at the deadline is a meet, not a miss.
  EXPECT_EQ(report.tasks[2].stats.missed, 0);
  EXPECT_EQ(report.missing_tasks(), std::vector<std::string>{"tau1"});
}

// ---------------------------------------------------------------------------
// Cross-figure invariants.
// ---------------------------------------------------------------------------

TEST_F(Figure, FaultyTaskGetsStrictlyMoreTimeUpThePolicyLadder) {
  // §6.4: under the equitable allowance τ1 "had more time to be carried
  // out than in the previous case"; under the system allowance more
  // still. Stop dates: 1030 < 1040 < 1060.
  FaultTolerantSystem* s5 = nullptr;
  FaultTolerantSystem* s6 = nullptr;
  FaultTolerantSystem* s7 = nullptr;
  run_figure(TreatmentPolicy::kInstantStop, &s5);
  run_figure(TreatmentPolicy::kEquitableAllowance, &s6);
  run_figure(TreatmentPolicy::kSystemAllowance, &s7);
  const Instant stop5 = abort_of(s5->recorder(), 0);
  const Instant stop6 = abort_of(s6->recorder(), 0);
  const Instant stop7 = abort_of(s7->recorder(), 0);
  EXPECT_LT(stop5, stop6);
  EXPECT_LT(stop6, stop7);
  delete s5;
  delete s6;
  delete s7;
}

TEST_F(Figure, OverrunWithinSystemAllowanceHarmsNobody) {
  // An overrun of 33 ms (== B) keeps even τ1 within its stop threshold:
  // the job completes at 1062 == the exact threshold; with quantization
  // to 60 the detector at 1060 still catches it mid-run, so use the
  // paper-exact timer to verify the boundary semantics.
  paper::Scenario s = paper::figures_scenario(
      TreatmentPolicy::kSystemAllowance, 33_ms,
      rt::Quantizer{Duration::ms(10), rt::Rounding::kNone});
  FaultTolerantSystem sys(std::move(s.config), std::move(s.faults));
  const RunReport report = sys.run();
  // Completion at 1000 + 29 + 33 = 1062, exactly the threshold fire
  // date: completion wins the tie, no stop, no miss anywhere.
  EXPECT_EQ(report.total_misses(), 0);
  for (const auto& t : report.tasks) EXPECT_FALSE(t.stats.stopped);
}

TEST_F(Figure, SummaryIsReadable) {
  const RunReport report = run(TreatmentPolicy::kInstantStop);
  const std::string s = report.summary();
  EXPECT_NE(s.find("instant-stop"), std::string::npos);
  EXPECT_NE(s.find("tau1"), std::string::npos);
  EXPECT_NE(s.find("STOPPED"), std::string::npos);
}

}  // namespace
}  // namespace rtft::core
