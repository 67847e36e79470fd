// Wall-clock executor tests. These run against real time on a shared
// machine, so they assert structural properties (counts, orderings,
// bookkeeping invariants) with generous tolerances rather than exact
// dates — exact-date reproduction is the virtual engine's job.
#include "posix/wallclock_executor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/assert.hpp"

namespace rtft::posix {
namespace {

using namespace rtft::literals;

sched::TaskParams task(std::string name, int priority, Duration cost,
                       Duration period) {
  return sched::TaskParams{std::move(name), priority, cost, period, period,
                           Duration::zero()};
}

TEST(WallclockExecutor, PeriodicReleasesRoughlyMatchHorizon) {
  WallclockOptions opts;
  opts.horizon = 300_ms;
  WallclockExecutor exec(opts);
  const rt::TaskHandle t = exec.add_task(task("t", 5, 5_ms, 50_ms));
  exec.run();
  const rt::TaskStats& s = exec.stats(t);
  // Expected ~6 releases (0, 50, ..., 250); allow slop for scheduling
  // noise and the shutdown edge.
  EXPECT_GE(s.released, 4);
  EXPECT_LE(s.released, 8);
  EXPECT_GE(s.completed, 4);
  EXPECT_LE(s.completed, s.released);
}

TEST(WallclockExecutor, CompletedJobsHavePositiveResponses) {
  WallclockOptions opts;
  opts.horizon = 200_ms;
  WallclockExecutor exec(opts);
  const rt::TaskHandle t = exec.add_task(task("t", 5, 10_ms, 60_ms));
  exec.run();
  const rt::TaskStats& s = exec.stats(t);
  ASSERT_GE(s.completed, 1);
  // A 10 ms job takes at least 10 ms of real time.
  EXPECT_GE(s.max_response, 10_ms);
  EXPECT_GE(s.last_response, 10_ms);
}

TEST(WallclockExecutor, HigherPriorityDelaysLower) {
  // high: 20 ms of work every 50 ms; low: 20 ms of work every 100 ms.
  // Synchronous release: low's response must include high's interference
  // (>= ~40 ms), clearly above its isolated 20 ms cost.
  WallclockOptions opts;
  opts.horizon = 400_ms;
  WallclockExecutor exec(opts);
  const rt::TaskHandle high = exec.add_task(task("high", 9, 20_ms, 50_ms));
  const rt::TaskHandle low = exec.add_task(task("low", 1, 20_ms, 100_ms));
  exec.run();
  ASSERT_GE(exec.stats(low).completed, 1);
  ASSERT_GE(exec.stats(high).completed, 3);
  EXPECT_GE(exec.stats(low).max_response, 35_ms);
}

TEST(WallclockExecutor, TraceEventsArriveInTimeOrderPerTask) {
  WallclockOptions opts;
  opts.horizon = 250_ms;
  WallclockExecutor exec(opts);
  exec.add_task(task("a", 5, 5_ms, 40_ms));
  exec.add_task(task("b", 3, 5_ms, 70_ms));
  exec.run();
  // Per task: release(j) <= start(j) <= end(j), job indices increasing.
  for (std::uint32_t taskid : {0u, 1u}) {
    std::int64_t last_job = -1;
    for (const auto& e : exec.recorder().events()) {
      if (e.task != taskid) continue;
      if (e.kind == trace::EventKind::kJobRelease) {
        EXPECT_EQ(e.job, last_job + 1);
        last_job = e.job;
      }
    }
    EXPECT_GE(last_job, 0);
  }
  // Global timestamps are non-decreasing (single recorder behind a lock).
  Instant prev = Instant::epoch();
  for (const auto& e : exec.recorder().events()) {
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
}

TEST(WallclockExecutor, MissesDetectedWhenOverloaded) {
  // One task whose cost exceeds its deadline: every completed job misses.
  WallclockOptions opts;
  opts.horizon = 250_ms;
  WallclockExecutor exec(opts);
  sched::TaskParams p = task("hog", 5, 60_ms, 80_ms);
  p.deadline = 30_ms;
  const rt::TaskHandle t = exec.add_task(p);
  exec.run();
  const rt::TaskStats& s = exec.stats(t);
  ASSERT_GE(s.completed, 1);
  EXPECT_EQ(s.missed, s.completed);
}

TEST(WallclockExecutor, TraceMirrorsTheStatistics) {
  // Per task, the owned trace's release, end and miss events must
  // mirror the executor's own statistics: both are written in the same
  // critical sections.
  WallclockOptions opts;
  opts.horizon = 250_ms;
  WallclockExecutor exec(opts);
  const rt::TaskHandle a = exec.add_task(task("a", 5, 5_ms, 40_ms));
  const rt::TaskHandle b = exec.add_task(task("b", 3, 5_ms, 70_ms));
  exec.run();
  for (const rt::TaskHandle t : {a, b}) {
    std::int64_t released = 0, ended = 0, missed = 0;
    for (const trace::TraceEvent& e : exec.recorder().events()) {
      if (e.task != t) continue;
      released += e.kind == trace::EventKind::kJobRelease ? 1 : 0;
      ended += e.kind == trace::EventKind::kJobEnd ? 1 : 0;
      missed += e.kind == trace::EventKind::kDeadlineMiss ? 1 : 0;
    }
    const rt::TaskStats& s = exec.stats(t);
    EXPECT_EQ(released, s.released);
    EXPECT_EQ(ended, s.completed);
    EXPECT_EQ(missed, s.missed);
    EXPECT_GE(s.released, 1);
  }
}

TEST(WallclockExecutor, TraceDatesShareTheSchedulingClock) {
  // One steady clock, read from run() on, schedules the releases,
  // measures the responses and dates the trace. So, exactly and on any
  // machine load, a release is never dated before its scheduled instant,
  // and neither is an end event's date minus the response it carries.
  WallclockOptions opts;
  opts.horizon = 200_ms;
  WallclockExecutor exec(opts);
  sched::TaskParams p = task("t", 5, 5_ms, 40_ms);
  p.offset = 3_ms;
  exec.add_task(p);
  exec.run();
  std::int64_t ends = 0;
  for (const trace::TraceEvent& e : exec.recorder().events()) {
    const Instant scheduled = Instant::epoch() + p.offset + p.period * e.job;
    if (e.kind == trace::EventKind::kJobRelease) {
      EXPECT_GE(e.time, scheduled) << "job " << e.job;
    }
    if (e.kind == trace::EventKind::kJobEnd) {
      ++ends;
      EXPECT_GE(e.time - Duration::ns(e.detail), scheduled) << "job " << e.job;
    }
  }
  EXPECT_GE(ends, 1);
}

TEST(WallclockExecutor, ApiMisuseRejected) {
  WallclockOptions opts;
  opts.horizon = 50_ms;
  {
    WallclockExecutor exec(opts);
    EXPECT_THROW(exec.run(), ContractViolation);  // no tasks
  }
  {
    WallclockExecutor exec(opts);
    exec.add_task(task("t", 5, 5_ms, 25_ms));
    exec.run();
    EXPECT_THROW(exec.run(), ContractViolation);           // run twice
    EXPECT_THROW(exec.add_task(task("u", 5, 5_ms, 25_ms)),
                 ContractViolation);                       // add after run
  }
  WallclockOptions bad;
  bad.horizon = Duration::zero();
  EXPECT_THROW(WallclockExecutor{bad}, ContractViolation);
}

}  // namespace
}  // namespace rtft::posix
