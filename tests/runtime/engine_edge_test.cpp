// Edge-case suite for the virtual-time engine: arbitrary deadlines,
// offsets, degenerate workloads, horizon boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "runtime/engine.hpp"
#include "sched/response_time.hpp"
#include "support/paper_systems.hpp"
#include "trace/recorder.hpp"
#include "trace/validator.hpp"

namespace rtft::rt {
namespace {

using trace::EventKind;
using namespace rtft::literals;

EngineOptions horizon_opts(Duration h) {
  EngineOptions o;
  o.horizon = Instant::epoch() + h;
  return o;
}

EngineOptions traced_opts(Duration h, trace::Recorder& rec) {
  EngineOptions o = horizon_opts(h);
  o.sink = &rec;
  return o;
}

TEST(EngineEdge, ArbitraryDeadlineBacklogMatchesLehoczkyJobByJob) {
  // τ2 of Table 1 (D < T but responses exceed the period): the engine's
  // backlogged-release semantics must produce exactly the per-job
  // responses of the level-i busy-period analysis over the hyperperiod.
  const sched::TaskSet ts = testsupport::table1_system();
  sched::RtaOptions opts;
  opts.record_jobs = true;
  const sched::RtaResult rta = sched::response_time(ts, 1, opts);

  trace::Recorder rec;
  Engine eng(traced_opts(12_ms, rec));  // one hyperperiod
  eng.add_task(ts[0]);
  const TaskHandle tau2 = eng.add_task(ts[1]);
  eng.run();

  std::vector<Duration> simulated;
  for (const auto& e : rec.events()) {
    if (e.kind == EventKind::kJobEnd &&
        e.task == static_cast<std::uint32_t>(tau2)) {
      simulated.push_back(Duration::ns(e.detail));
    }
  }
  ASSERT_EQ(simulated.size(), rta.jobs.size());
  for (std::size_t i = 0; i < simulated.size(); ++i) {
    EXPECT_EQ(simulated[i], rta.jobs[i].response) << "job " << i;
  }
}

TEST(EngineEdge, OffsetsShiftEverything) {
  trace::Recorder rec;
  Engine eng(traced_opts(100_ms, rec));
  sched::TaskParams p{"off", 5, 10_ms, 40_ms, 40_ms, /*offset=*/15_ms};
  const TaskHandle t = eng.add_task(p);
  eng.run();
  std::vector<trace::TraceEvent> releases;
  std::ranges::copy_if(rec.events(), std::back_inserter(releases),
                       [](EventKind k) { return k == EventKind::kJobRelease; },
                       &trace::TraceEvent::kind);
  ASSERT_EQ(releases.size(), 3u);  // 15, 55, 95
  EXPECT_EQ(releases[0].time, Instant::epoch() + 15_ms);
  EXPECT_EQ(releases[2].time, Instant::epoch() + 95_ms);
  EXPECT_EQ(eng.stats(t).completed, 2);  // 95+10 > 100
}

TEST(EngineEdge, TinyCostsAndLongHorizonsStayExact) {
  Engine eng(horizon_opts(Duration::s(10)));
  const TaskHandle t = eng.add_task(
      sched::TaskParams{"tiny", 5, 1_us, 1_ms, 1_ms, 0_ms});
  eng.run();
  EXPECT_EQ(eng.stats(t).released, 10'001);  // 0 .. 10s inclusive
  EXPECT_EQ(eng.stats(t).completed, 10'000);
  EXPECT_EQ(eng.stats(t).max_response, 1_us);
}

TEST(EngineEdge, ManyEqualPriorityTasksKeepFifoOrder) {
  trace::Recorder rec;
  Engine eng(traced_opts(100_ms, rec));
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(eng.add_task(sched::TaskParams{
        "t" + std::to_string(i), 5, 2_ms, 100_ms, 100_ms, 0_ms}));
  }
  eng.run();
  // All released at 0, served in handle order: completions at 2, 4, ...
  for (std::size_t i = 0; i < handles.size(); ++i) {
    bool found = false;
    for (const auto& e : rec.events()) {
      if (e.kind == EventKind::kJobEnd &&
          e.task == static_cast<std::uint32_t>(handles[i])) {
        EXPECT_EQ(e.time,
                  Instant::epoch() + 2_ms * (static_cast<std::int64_t>(i) + 1));
        found = true;
      }
    }
    EXPECT_TRUE(found) << i;
  }
  EXPECT_EQ(std::ranges::count(rec.events(), EventKind::kJobPreempted,
                               &trace::TraceEvent::kind),
            0);
}

TEST(EngineEdge, DeadlineLongerThanPeriodChecksFireAfterNextRelease) {
  // D = 2T: the job released at 0 is checked at 2T, after the next
  // release — late completion within D is a meet.
  Engine eng(horizon_opts(100_ms));
  sched::TaskParams p{"dgt", 5, 15_ms, 10_ms, 20_ms, 0_ms};
  const TaskHandle t = eng.add_task(p);
  eng.run_until(Instant::epoch() + 42_ms);
  // job0 [0,15): response 15 <= 20: meets. job1 (rel 10) [15,30):
  // response 20 <= 20 meets. job2 (rel 20) [30,45): at check 40 pending
  // -> miss.
  EXPECT_EQ(eng.stats(t).missed, 1);
  EXPECT_EQ(eng.job_outcome(t, 0), JobOutcome::kCompleted);
  EXPECT_EQ(eng.job_outcome(t, 1), JobOutcome::kCompleted);
}

TEST(EngineEdge, HeavyOverloadTraceStillValidates) {
  // U > 1: constant backlog and misses everywhere, but the trace must
  // remain structurally sound.
  sched::TaskSet ts;
  ts.add(sched::TaskParams{"a", 9, 7_ms, 10_ms, 10_ms, 0_ms});
  ts.add(sched::TaskParams{"b", 1, 7_ms, 10_ms, 10_ms, 0_ms});
  trace::Recorder rec;
  Engine eng(traced_opts(500_ms, rec));
  const TaskHandle a = eng.add_task(ts[0]);
  const TaskHandle b = eng.add_task(ts[1]);
  eng.run();
  EXPECT_EQ(eng.stats(a).missed, 0);      // a fits: 7 <= 10
  EXPECT_GT(eng.stats(b).missed, 30);     // b starves
  const trace::ValidationResult v = trace::validate_trace(ts, rec);
  EXPECT_TRUE(v.ok()) << v.summary();
}

TEST(EngineEdge, RunUntilInStepsEqualsOneShot) {
  const auto collect = [](const trace::Recorder& rec) {
    std::vector<std::tuple<std::int64_t, int, std::uint32_t>> out;
    for (const auto& e : rec.events()) {
      out.emplace_back(e.time.count(), static_cast<int>(e.kind), e.task);
    }
    return out;
  };
  const sched::TaskSet ts = testsupport::table2_system(1000_ms);

  trace::Recorder one_rec;
  Engine one(traced_opts(2000_ms, one_rec));
  for (const auto& t : ts) one.add_task(t);
  one.run();

  trace::Recorder stepped_rec;
  Engine stepped(traced_opts(2000_ms, stepped_rec));
  for (const auto& t : ts) stepped.add_task(t);
  for (int k = 1; k <= 20; ++k) {
    stepped.run_until(Instant::epoch() + 100_ms * k);
  }
  EXPECT_EQ(collect(one_rec), collect(stepped_rec));
}

}  // namespace
}  // namespace rtft::rt
