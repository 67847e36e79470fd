#include "core/detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "core/paper.hpp"
#include "sched/response_time.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"

namespace rtft::core {
namespace {

using trace::EventKind;
using namespace rtft::literals;

rt::EngineOptions horizon_opts(Duration h) {
  rt::EngineOptions o;
  o.horizon = Instant::epoch() + h;
  return o;
}

rt::EngineOptions traced_opts(Duration h, trace::Sink& sink) {
  rt::EngineOptions o = horizon_opts(h);
  o.sink = &sink;
  return o;
}

std::vector<trace::TraceEvent> events_of_kind(const trace::Recorder& rec,
                                              EventKind kind) {
  std::vector<trace::TraceEvent> out;
  std::ranges::copy_if(rec.events(), std::back_inserter(out),
                       [kind](EventKind k) { return k == kind; },
                       &trace::TraceEvent::kind);
  return out;
}

TEST(DetectorBank, QuantizesThresholdsLikeThePaper) {
  rt::Engine eng(horizon_opts(100_ms));
  const auto ts = paper::table2_system();
  std::vector<rt::TaskHandle> handles;
  for (const auto& t : ts) handles.push_back(eng.add_task(t));
  DetectorBank bank(eng, handles, {29_ms, 58_ms, 87_ms}, DetectorConfig{},
                    {});
  EXPECT_EQ(bank.quantized_threshold(0), 30_ms);
  EXPECT_EQ(bank.quantized_threshold(1), 60_ms);
  EXPECT_EQ(bank.quantized_threshold(2), 90_ms);
  EXPECT_EQ(bank.raw_threshold(0), 29_ms);
}

TEST(DetectorBank, NominalRunRaisesNoFault) {
  // A CountingSink suffices here: the test only needs event counts.
  trace::CountingSink sink;
  rt::Engine eng(traced_opts(2000_ms, sink));
  const auto ts = paper::table2_system();
  std::vector<rt::TaskHandle> handles;
  for (const auto& t : ts) handles.push_back(eng.add_task(t));
  DetectorBank bank(eng, handles, {29_ms, 58_ms, 87_ms}, DetectorConfig{},
                    {});
  eng.run();
  EXPECT_EQ(bank.total_faults(), 0);
  EXPECT_EQ(sink.total(EventKind::kFaultDetected), 0);
  // But the detectors did fire regularly.
  EXPECT_GT(sink.total(EventKind::kDetectorFire), 10);
}

TEST(DetectorBank, LateJobDetectedAndHandlerRuns) {
  rt::Engine eng(horizon_opts(100_ms));
  sched::TaskParams p{"t", 5, 10_ms, 50_ms, 50_ms, Duration::zero()};
  const rt::TaskHandle h =
      eng.add_task(p, [](std::int64_t) { return 25_ms; });
  std::vector<std::int64_t> faulted_jobs;
  DetectorConfig cfg;
  cfg.quantizer.mode = rt::Rounding::kNone;
  DetectorBank bank(eng, {h}, {10_ms}, cfg,
                    [&](rt::Engine&, rt::TaskHandle, std::int64_t job) {
                      faulted_jobs.push_back(job);
                    });
  eng.run();
  // Jobs 0 (release 0, done 25) and 1 (release 50, done 75) both run past
  // the 10 ms threshold.
  EXPECT_EQ(bank.faults_detected(0), 2);
  EXPECT_EQ(faulted_jobs, (std::vector<std::int64_t>{0, 1}));
}

TEST(DetectorBank, JobFinishingExactlyAtFireIsNotFaulty) {
  rt::Engine eng(horizon_opts(40_ms));
  sched::TaskParams p{"t", 5, 10_ms, 40_ms, 40_ms, Duration::zero()};
  const rt::TaskHandle h = eng.add_task(p);
  DetectorConfig cfg;
  cfg.quantizer.mode = rt::Rounding::kNone;
  DetectorBank bank(eng, {h}, {10_ms}, cfg, {});  // fire exactly at end
  eng.run();
  EXPECT_EQ(bank.total_faults(), 0);
}

TEST(DetectorBank, DetectorFollowsTaskOffset) {
  trace::Recorder rec;
  rt::Engine eng(traced_opts(100_ms, rec));
  sched::TaskParams p{"t", 5, 30_ms, 100_ms, 100_ms, /*offset=*/20_ms};
  const rt::TaskHandle h =
      eng.add_task(p, [](std::int64_t) { return 45_ms; });
  DetectorConfig cfg;
  cfg.quantizer.mode = rt::Rounding::kNone;
  DetectorBank bank(eng, {h}, {30_ms}, cfg, {});
  eng.run();
  const auto fires = events_of_kind(rec, EventKind::kDetectorFire);
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].time, Instant::epoch() + 50_ms);  // 20 + 30
  EXPECT_EQ(bank.total_faults(), 1);                   // done at 65
}

TEST(DetectorBank, RetiresWithStoppedTask) {
  trace::Recorder rec;
  rt::Engine eng(traced_opts(200_ms, rec));
  sched::TaskParams p{"t", 5, 10_ms, 50_ms, 50_ms, Duration::zero()};
  const rt::TaskHandle h = eng.add_task(p);
  DetectorConfig cfg;
  cfg.quantizer.mode = rt::Rounding::kNone;
  DetectorBank bank(eng, {h}, {15_ms}, cfg, {});
  eng.add_one_shot_timer(Instant::epoch() + 60_ms, [&](rt::Engine& e) {
    e.request_stop(h, rt::StopMode::kTask);
  });
  eng.run();
  // Fires at 15 (job 0 done) and 65 (task stopped -> detector retires
  // without reporting); later fires are cancelled.
  const auto fires = events_of_kind(rec, EventKind::kDetectorFire);
  EXPECT_EQ(fires.size(), 1u);
  EXPECT_EQ(bank.total_faults(), 0);
}

TEST(DetectorBank, FireCostDelaysTheSystem) {
  trace::Recorder rec;
  rt::Engine eng(traced_opts(60_ms, rec));
  sched::TaskParams p{"t", 5, 30_ms, 60_ms, 60_ms, Duration::zero()};
  const rt::TaskHandle h = eng.add_task(p);
  DetectorConfig cfg;
  cfg.quantizer.mode = rt::Rounding::kNone;
  cfg.fire_cost = 2_ms;
  // Threshold 10: fires while the job runs; its cost preempts the job.
  DetectorBank bank(eng, {h}, {10_ms}, cfg, {});
  eng.run();
  const auto ends = events_of_kind(rec, EventKind::kJobEnd);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0].time, Instant::epoch() + 32_ms);  // 30 + 2
  EXPECT_EQ(bank.total_faults(), 1);  // job genuinely past threshold
}

TEST(DetectorBank, MidRunArmingAlignsWithTaskStart) {
  // Regression: detectors for tasks launched mid-run (dynamic admission)
  // must align on the task's actual first release, not the epoch.
  trace::Recorder rec;
  rt::Engine eng(traced_opts(500_ms, rec));
  eng.run_until(Instant::epoch() + 150_ms);
  sched::TaskParams p{"late", 5, 10_ms, 100_ms, 100_ms, Duration::zero()};
  const rt::TaskHandle h = eng.add_task(p, {}, {}, eng.now());
  DetectorConfig cfg;
  cfg.quantizer.mode = rt::Rounding::kNone;
  DetectorBank bank(eng, {h}, {10_ms}, cfg, {});
  eng.run();
  // Releases at 150, 250, 350, 450; fires at 160, 260, 360, 460; the
  // task always completes exactly at its threshold: no fault.
  const auto fires = events_of_kind(rec, EventKind::kDetectorFire);
  ASSERT_EQ(fires.size(), 4u);
  EXPECT_EQ(fires[0].time, Instant::epoch() + 160_ms);
  EXPECT_EQ(bank.total_faults(), 0);
}

TEST(DetectorBank, MidRunArmingSkipsElapsedWatchDates) {
  // Bank armed at t=35 for a task running since 0 with threshold 10:
  // watch dates 10 and 30 already passed; watching resumes at job 2
  // (fire at 50) with the job counter aligned.
  trace::Recorder rec;
  rt::Engine eng(traced_opts(100_ms, rec));
  sched::TaskParams p{"t", 5, 5_ms, 20_ms, 20_ms, Duration::zero()};
  const rt::TaskHandle h =
      eng.add_task(p, [](std::int64_t job) { return job == 2 ? 15_ms : 5_ms; });
  eng.run_until(Instant::epoch() + 35_ms);
  DetectorConfig cfg;
  cfg.quantizer.mode = rt::Rounding::kNone;
  DetectorBank bank(eng, {h}, {10_ms}, cfg, {});
  eng.run();
  // Job 2 (released 40, cost 15) is still running at its watch date 50.
  ASSERT_GE(bank.total_faults(), 1);
  const auto faults = events_of_kind(rec, EventKind::kFaultDetected);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].time, Instant::epoch() + 50_ms);
  EXPECT_EQ(faults[0].job, 2);
}

TEST(DetectorBank, CancelSilencesTheBank) {
  rt::Engine eng(horizon_opts(200_ms));
  sched::TaskParams p{"t", 5, 10_ms, 50_ms, 50_ms, Duration::zero()};
  const rt::TaskHandle h =
      eng.add_task(p, [](std::int64_t) { return 30_ms; });
  DetectorConfig cfg;
  cfg.quantizer.mode = rt::Rounding::kNone;
  DetectorBank bank(eng, {h}, {10_ms}, cfg, {});
  eng.run_until(Instant::epoch() + 60_ms);
  const std::int64_t faults_before = bank.total_faults();
  EXPECT_GE(faults_before, 1);
  bank.cancel(eng);
  eng.run();
  EXPECT_EQ(bank.total_faults(), faults_before);  // no further reports
}

TEST(DetectorBank, MismatchedVectorsThrow) {
  rt::Engine eng(horizon_opts(10_ms));
  const rt::TaskHandle h = eng.add_task(
      sched::TaskParams{"t", 5, 1_ms, 5_ms, 5_ms, Duration::zero()});
  EXPECT_THROW(DetectorBank(eng, {h}, {1_ms, 2_ms}, DetectorConfig{}, {}),
               ContractViolation);
  EXPECT_THROW(
      DetectorBank(eng, {h}, {Duration::ms(-1)}, DetectorConfig{}, {}),
      ContractViolation);
}

}  // namespace
}  // namespace rtft::core
