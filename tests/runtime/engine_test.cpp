#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "support/paper_systems.hpp"
#include "trace/recorder.hpp"

namespace rtft::rt {
namespace {

using rtft::testsupport::table1_system;
using rtft::testsupport::table2_system;
using trace::EventKind;
using namespace rtft::literals;

EngineOptions options_with_horizon(Duration horizon) {
  EngineOptions opts;
  opts.horizon = Instant::epoch() + horizon;
  return opts;
}

/// Wires a full-fidelity recorder into the options' sink seam.
EngineOptions with_sink(EngineOptions opts, trace::Recorder& rec) {
  opts.sink = &rec;
  return opts;
}

/// Events of one kind, in record order.
std::vector<trace::TraceEvent> events_of_kind(const trace::Recorder& rec,
                                              EventKind kind) {
  std::vector<trace::TraceEvent> out;
  std::ranges::copy_if(rec.events(), std::back_inserter(out),
                       [kind](EventKind k) { return k == kind; },
                       &trace::TraceEvent::kind);
  return out;
}

sched::TaskParams simple_task(std::string name, int priority, Duration cost,
                              Duration period,
                              Duration offset = Duration::zero()) {
  return sched::TaskParams{std::move(name), priority, cost, period, period,
                           offset};
}

/// First event of a kind for a task, or nullopt.
std::optional<trace::TraceEvent> first_event(const trace::Recorder& rec,
                                             EventKind kind,
                                             std::uint32_t task) {
  for (const auto& e : rec.events()) {
    if (e.kind == kind && e.task == task) return e;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Basic lifecycle.
// ---------------------------------------------------------------------------

TEST(Engine, SingleTaskCompletesWithResponseEqualCost) {
  Engine eng(options_with_horizon(100_ms));
  const TaskHandle t = eng.add_task(simple_task("solo", 5, 7_ms, 50_ms));
  eng.run();
  const TaskStats& s = eng.stats(t);
  EXPECT_EQ(s.released, 3);   // releases at 0, 50 and 100 (the horizon)
  EXPECT_EQ(s.completed, 2);  // the job released at 100 cannot finish
  EXPECT_EQ(s.missed, 0);
  EXPECT_EQ(s.max_response, 7_ms);
}

TEST(Engine, ReleaseDatesFollowOffsetAndPeriod) {
  trace::Recorder rec;
  Engine eng(with_sink(options_with_horizon(100_ms), rec));
  const TaskHandle t =
      eng.add_task(simple_task("off", 5, 1_ms, 30_ms, /*offset=*/10_ms));
  eng.run();
  const auto releases = events_of_kind(rec, EventKind::kJobRelease);
  ASSERT_EQ(releases.size(), 4u);  // 10, 40, 70, 100
  EXPECT_EQ(releases[0].time, Instant::epoch() + 10_ms);
  EXPECT_EQ(releases[1].time, Instant::epoch() + 40_ms);
  EXPECT_EQ(releases[2].time, Instant::epoch() + 70_ms);
  EXPECT_EQ(releases[3].time, Instant::epoch() + 100_ms);
  EXPECT_EQ(eng.stats(t).released, 4);
}

TEST(Engine, HigherPriorityPreemptsLower) {
  trace::Recorder rec;
  Engine eng(with_sink(options_with_horizon(50_ms), rec));
  const TaskHandle low =
      eng.add_task(simple_task("low", 1, 10_ms, 50_ms));
  const TaskHandle high =
      eng.add_task(simple_task("high", 9, 3_ms, 50_ms, /*offset=*/2_ms));
  eng.run();

  // low runs [0,2), preempted, high runs [2,5), low resumes [5,13).
  const auto low_end = first_event(rec, EventKind::kJobEnd,
                                   static_cast<std::uint32_t>(low));
  const auto high_end = first_event(rec, EventKind::kJobEnd,
                                    static_cast<std::uint32_t>(high));
  ASSERT_TRUE(low_end && high_end);
  EXPECT_EQ(high_end->time, Instant::epoch() + 5_ms);
  EXPECT_EQ(low_end->time, Instant::epoch() + 13_ms);

  const auto preempt = first_event(rec, EventKind::kJobPreempted,
                                   static_cast<std::uint32_t>(low));
  ASSERT_TRUE(preempt.has_value());
  EXPECT_EQ(preempt->time, Instant::epoch() + 2_ms);
}

TEST(Engine, FifoWithinSamePriority) {
  trace::Recorder rec;
  Engine eng(with_sink(options_with_horizon(50_ms), rec));
  const TaskHandle a = eng.add_task(simple_task("a", 5, 3_ms, 50_ms));
  const TaskHandle b = eng.add_task(simple_task("b", 5, 3_ms, 50_ms));
  eng.run();
  // Both release at 0; "a" was added first, becomes ready first, runs
  // first; "b" follows without preempting it.
  const auto a_end = first_event(rec, EventKind::kJobEnd,
                                 static_cast<std::uint32_t>(a));
  const auto b_end = first_event(rec, EventKind::kJobEnd,
                                 static_cast<std::uint32_t>(b));
  ASSERT_TRUE(a_end && b_end);
  EXPECT_EQ(a_end->time, Instant::epoch() + 3_ms);
  EXPECT_EQ(b_end->time, Instant::epoch() + 6_ms);
  EXPECT_EQ(std::ranges::count(rec.events(), EventKind::kJobPreempted,
                               &trace::TraceEvent::kind),
            0);
}

// ---------------------------------------------------------------------------
// Paper Table 1 timeline: simulated responses must equal the analysis.
// ---------------------------------------------------------------------------

TEST(Engine, PaperTable1SimulatedResponsesAre5_6_4) {
  trace::Recorder rec;
  Engine eng(with_sink(options_with_horizon(24_ms), rec));
  const auto ts = table1_system();
  eng.add_task(ts[0]);
  const TaskHandle tau2 = eng.add_task(ts[1]);
  eng.run();

  std::vector<Duration> responses;
  for (const auto& e : rec.events()) {
    if (e.kind == EventKind::kJobEnd &&
        e.task == static_cast<std::uint32_t>(tau2)) {
      responses.push_back(Duration::ns(e.detail));
    }
  }
  // τ2 jobs released at 0, 4, 8, 12, ... — the level-2 busy period gives
  // responses 5, 6, 4 for the first three jobs (paper Figure 1), after
  // which the pattern repeats (12 is the hyperperiod).
  ASSERT_GE(responses.size(), 3u);
  EXPECT_EQ(responses[0], 5_ms);
  EXPECT_EQ(responses[1], 6_ms);
  EXPECT_EQ(responses[2], 4_ms);
}

TEST(Engine, PaperTable1DeadlineMissesDetected) {
  // τ2's deadline is 2 ms but its responses are 4–6 ms: every job misses.
  Engine eng(options_with_horizon(12_ms));
  const auto ts = table1_system();
  eng.add_task(ts[0]);
  const TaskHandle tau2 = eng.add_task(ts[1]);
  eng.run();
  EXPECT_EQ(eng.stats(tau2).missed, 3);
  EXPECT_EQ(eng.stats(tau2).completed, 3);  // late but completed
}

// ---------------------------------------------------------------------------
// Backlogged releases (RTSJ waitForNextPeriod semantics).
// ---------------------------------------------------------------------------

TEST(Engine, OverrunningJobBacklogsSuccessor) {
  trace::Recorder rec;
  Engine eng(with_sink(options_with_horizon(30_ms), rec));
  // One task, period 10, nominal cost 4, first job takes 14.
  const TaskHandle t = eng.add_task(
      simple_task("lag", 5, 4_ms, 10_ms),
      [](std::int64_t job) { return job == 0 ? 14_ms : 4_ms; });
  eng.run();
  const TaskStats& s = eng.stats(t);
  // Job 0: [0,14) -> misses its deadline at 10. Job 1 (released 10) runs
  // [14,18): response 8, meets deadline at 20. Job 2 (released 20) runs
  // [20,24).
  EXPECT_EQ(s.missed, 1);
  EXPECT_EQ(s.completed, 3);
  const auto ends = events_of_kind(rec, EventKind::kJobEnd);
  ASSERT_EQ(ends.size(), 3u);
  EXPECT_EQ(ends[0].time, Instant::epoch() + 14_ms);
  EXPECT_EQ(ends[1].time, Instant::epoch() + 18_ms);
  EXPECT_EQ(ends[2].time, Instant::epoch() + 24_ms);
}

TEST(Engine, OverrunInjectionIsRecorded) {
  trace::Recorder rec;
  Engine eng(with_sink(options_with_horizon(20_ms), rec));
  eng.add_task(simple_task("f", 5, 4_ms, 20_ms),
               [](std::int64_t job) { return job == 0 ? 9_ms : 4_ms; });
  eng.run();
  const auto injected = events_of_kind(rec, EventKind::kOverrunInjected);
  ASSERT_EQ(injected.size(), 1u);
  EXPECT_EQ(injected[0].job, 0);
  EXPECT_EQ(Duration::ns(injected[0].detail), 5_ms);
}

// ---------------------------------------------------------------------------
// Stopping (cooperative, §4.1).
// ---------------------------------------------------------------------------

TEST(Engine, StopTaskAbortsCurrentJobAndFutureReleases) {
  Engine eng(options_with_horizon(100_ms));
  const TaskHandle t = eng.add_task(simple_task("victim", 5, 8_ms, 20_ms));
  eng.add_one_shot_timer(Instant::epoch() + 3_ms, [&](Engine& e) {
    e.request_stop(t, StopMode::kTask);
  });
  eng.run();
  const TaskStats& s = eng.stats(t);
  EXPECT_TRUE(s.stopped);
  EXPECT_EQ(s.aborted, 1);
  EXPECT_EQ(s.completed, 0);
  EXPECT_EQ(s.released, 1);  // releases at 20, 40, ... never happen
  EXPECT_EQ(s.missed, 1);    // job 0 never completed
  EXPECT_EQ(eng.job_outcome(t, 0), JobOutcome::kAborted);
}

TEST(Engine, StopJobKeepsTaskAlive) {
  Engine eng(options_with_horizon(45_ms));
  const TaskHandle t = eng.add_task(simple_task("victim", 5, 8_ms, 20_ms));
  eng.add_one_shot_timer(Instant::epoch() + 3_ms, [&](Engine& e) {
    e.request_stop(t, StopMode::kJob);
  });
  eng.run();
  const TaskStats& s = eng.stats(t);
  EXPECT_FALSE(s.stopped);
  EXPECT_EQ(s.aborted, 1);
  EXPECT_EQ(s.completed, 1);  // job at 20 finishes; 40+8 = 48 > horizon
  EXPECT_EQ(s.released, 3);   // 0, 20, 40
}

TEST(Engine, StopPollLatencyDelaysEffect) {
  trace::Recorder rec;
  EngineOptions opts = options_with_horizon(100_ms);
  opts.stop_poll_latency = 2_ms;
  opts.sink = &rec;
  Engine eng(opts);
  const TaskHandle t = eng.add_task(simple_task("victim", 5, 8_ms, 20_ms));
  eng.add_one_shot_timer(Instant::epoch() + 3_ms, [&](Engine& e) {
    e.request_stop(t, StopMode::kTask);
  });
  eng.run();
  const auto aborted = first_event(rec, EventKind::kJobAborted,
                                   static_cast<std::uint32_t>(t));
  ASSERT_TRUE(aborted.has_value());
  EXPECT_EQ(aborted->time, Instant::epoch() + 5_ms);  // 3 + 2
}

TEST(Engine, StoppingStoppedTaskIsIdempotent) {
  Engine eng(options_with_horizon(50_ms));
  const TaskHandle t = eng.add_task(simple_task("victim", 5, 8_ms, 20_ms));
  eng.add_one_shot_timer(Instant::epoch() + 1_ms, [&](Engine& e) {
    e.request_stop(t, StopMode::kTask);
    e.request_stop(t, StopMode::kTask);
  });
  eng.run();
  EXPECT_EQ(eng.stats(t).aborted, 1);
}

TEST(Engine, SkippedBackloggedJobsCountAsMissed) {
  Engine eng(options_with_horizon(100_ms));
  // First job overruns heavily so jobs 1 and 2 are backlogged, then the
  // task is stopped: the backlogged jobs are skipped and ultimately miss.
  const TaskHandle t = eng.add_task(
      simple_task("lag", 5, 2_ms, 10_ms),
      [](std::int64_t job) { return job == 0 ? 50_ms : 2_ms; });
  eng.add_one_shot_timer(Instant::epoch() + 25_ms, [&](Engine& e) {
    e.request_stop(t, StopMode::kTask);
  });
  eng.run();
  const TaskStats& s = eng.stats(t);
  EXPECT_TRUE(s.stopped);
  EXPECT_EQ(s.released, 3);  // 0, 10, 20
  EXPECT_EQ(s.aborted, 1);
  EXPECT_EQ(s.missed, 3);    // all of them
  EXPECT_EQ(eng.job_outcome(t, 1), JobOutcome::kSkipped);
  EXPECT_EQ(eng.job_outcome(t, 2), JobOutcome::kSkipped);
}

// ---------------------------------------------------------------------------
// Timers.
// ---------------------------------------------------------------------------

TEST(Engine, OneShotTimerFiresOnce) {
  Engine eng(options_with_horizon(50_ms));
  int fires = 0;
  eng.add_one_shot_timer(Instant::epoch() + 10_ms,
                         [&](Engine&) { ++fires; });
  eng.run();
  EXPECT_EQ(fires, 1);
}

TEST(Engine, PeriodicTimerFiresRepeatedly) {
  Engine eng(options_with_horizon(50_ms));
  std::vector<Instant> dates;
  eng.add_periodic_timer(Instant::epoch() + 5_ms, 10_ms,
                         [&](Engine& e) { dates.push_back(e.now()); });
  eng.run();
  ASSERT_EQ(dates.size(), 5u);  // 5, 15, 25, 35, 45
  EXPECT_EQ(dates[0], Instant::epoch() + 5_ms);
  EXPECT_EQ(dates[4], Instant::epoch() + 45_ms);
}

TEST(Engine, CancelledTimerStopsFiring) {
  Engine eng(options_with_horizon(50_ms));
  int fires = 0;
  TimerHandle timer = eng.add_periodic_timer(
      Instant::epoch() + 5_ms, 10_ms, [&](Engine& e) {
        if (++fires == 2) e.cancel_timer(timer);
      });
  eng.run();
  EXPECT_EQ(fires, 2);
}

TEST(Engine, TimerRunsInZeroVirtualTime) {
  // A timer fire between two jobs must not delay them.
  trace::Recorder rec;
  Engine eng(with_sink(options_with_horizon(20_ms), rec));
  const TaskHandle t = eng.add_task(simple_task("t", 5, 10_ms, 20_ms));
  eng.add_one_shot_timer(Instant::epoch() + 5_ms, [](Engine&) {});
  eng.run();
  const auto end = first_event(rec, EventKind::kJobEnd,
                               static_cast<std::uint32_t>(t));
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(end->time, Instant::epoch() + 10_ms);
}

TEST(Engine, CompletionBeatsTimerAtSameInstant) {
  // Figure 5 semantics: a job completing exactly when a detector fires is
  // observed as finished.
  Engine eng(options_with_horizon(20_ms));
  const TaskHandle t = eng.add_task(simple_task("t", 5, 10_ms, 20_ms));
  bool finished_at_fire = false;
  eng.add_one_shot_timer(Instant::epoch() + 10_ms, [&](Engine& e) {
    finished_at_fire = e.job_completed(t, 0);
  });
  eng.run();
  EXPECT_TRUE(finished_at_fire);
}

// ---------------------------------------------------------------------------
// Overhead injection and context switches.
// ---------------------------------------------------------------------------

TEST(Engine, InjectedOverheadDelaysTasks) {
  trace::Recorder rec;
  Engine eng(with_sink(options_with_horizon(30_ms), rec));
  const TaskHandle t = eng.add_task(simple_task("t", 5, 10_ms, 30_ms));
  eng.add_one_shot_timer(Instant::epoch() + 2_ms, [](Engine& e) {
    e.inject_overhead(3_ms);  // a simulated kernel/detector cost
  });
  eng.run();
  const auto end = first_event(rec, EventKind::kJobEnd,
                               static_cast<std::uint32_t>(t));
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(end->time, Instant::epoch() + 13_ms);
}

TEST(Engine, OverheadDrainingAtAnotherEventsInstant) {
  // The overhead interval drains at t=5, the preempted job's original
  // completion date: the job must resume as the overhead ends, not
  // complete there or resume while the overhead still runs.
  trace::Recorder rec;
  Engine eng(with_sink(options_with_horizon(20_ms), rec));
  const TaskHandle t = eng.add_task(simple_task("t", 5, 5_ms, 20_ms));
  eng.add_one_shot_timer(Instant::epoch() + 2_ms, [](Engine& e) {
    e.inject_overhead(3_ms);  // drains at t=5
  });
  eng.run();
  const auto end = first_event(rec, EventKind::kJobEnd,
                               static_cast<std::uint32_t>(t));
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(end->time, Instant::epoch() + 8_ms);  // 5ms work + 3ms overhead
}

TEST(Engine, ContextSwitchCostCharged) {
  trace::Recorder rec;
  EngineOptions opts = options_with_horizon(40_ms);
  opts.context_switch_cost = 1_ms;
  opts.sink = &rec;
  Engine eng(opts);
  const TaskHandle low = eng.add_task(simple_task("low", 1, 10_ms, 40_ms));
  eng.add_task(simple_task("high", 9, 5_ms, 40_ms, /*offset=*/3_ms));
  eng.run();
  // Switch charge [0,1), low runs [1,3) and is preempted by high's
  // release; charge [3,4), high runs [4,9); charge [9,10), low resumes
  // with 8 ms left and ends at 18.
  const auto low_end = first_event(rec, EventKind::kJobEnd,
                                   static_cast<std::uint32_t>(low));
  ASSERT_TRUE(low_end.has_value());
  EXPECT_EQ(low_end->time, Instant::epoch() + 18_ms);
}

// ---------------------------------------------------------------------------
// Callbacks (waitForNextPeriod hooks).
// ---------------------------------------------------------------------------

TEST(Engine, JobCallbacksBracketEveryJob) {
  Engine eng(options_with_horizon(45_ms));
  std::vector<std::pair<char, std::int64_t>> log;
  TaskCallbacks cb;
  cb.on_job_begin = [&](Engine&, std::int64_t j) { log.push_back({'b', j}); };
  cb.on_job_end = [&](Engine&, std::int64_t j) { log.push_back({'e', j}); };
  eng.add_task(simple_task("t", 5, 5_ms, 20_ms), {}, cb);
  eng.run();
  ASSERT_EQ(log.size(), 6u);  // jobs 0, 1, 2
  EXPECT_EQ(log[0], (std::pair<char, std::int64_t>{'b', 0}));
  EXPECT_EQ(log[1], (std::pair<char, std::int64_t>{'e', 0}));
  EXPECT_EQ(log[4], (std::pair<char, std::int64_t>{'b', 2}));
  EXPECT_EQ(log[5], (std::pair<char, std::int64_t>{'e', 2}));
}

// ---------------------------------------------------------------------------
// Determinism and guard rails.
// ---------------------------------------------------------------------------

TEST(Engine, RunsAreDeterministic) {
  auto run_once = [] {
    trace::Recorder rec;
    Engine eng(with_sink(options_with_horizon(2000_ms), rec));
    const auto ts = table2_system(/*tau3_offset=*/1000_ms);
    for (const auto& t : ts) eng.add_task(t);
    eng.run();
    std::vector<std::tuple<std::int64_t, int, std::uint32_t, std::int64_t>>
        out;
    for (const auto& e : rec.events()) {
      out.emplace_back(e.time.count(), static_cast<int>(e.kind), e.task,
                       e.job);
    }
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, RejectsPastDates) {
  Engine eng(options_with_horizon(50_ms));
  eng.add_task(simple_task("t", 5, 5_ms, 20_ms));
  eng.run_until(Instant::epoch() + 30_ms);
  EXPECT_THROW(eng.add_one_shot_timer(Instant::epoch() + 10_ms, {}),
               ContractViolation);
  EXPECT_THROW(
      (void)eng.add_task(simple_task("late", 5, 5_ms, 20_ms)),
      ContractViolation);
  EXPECT_THROW(eng.run_until(Instant::epoch() + 10_ms), ContractViolation);
  EXPECT_THROW(eng.run_until(Instant::epoch() + 60_ms), ContractViolation);
}

TEST(Engine, DynamicTaskAdditionMidRun) {
  Engine eng(options_with_horizon(50_ms));
  eng.add_task(simple_task("t", 5, 5_ms, 20_ms));
  eng.run_until(Instant::epoch() + 10_ms);
  const TaskHandle late = eng.add_task(simple_task("late", 6, 3_ms, 20_ms),
                                       {}, {}, eng.now());
  eng.run();
  EXPECT_EQ(eng.stats(late).released, 3);  // 10, 30, 50
  EXPECT_EQ(eng.stats(late).completed, 2); // 50+3 > 50: last incomplete
}

TEST(Engine, InvalidHandlesThrow) {
  Engine eng(options_with_horizon(10_ms));
  EXPECT_THROW((void)eng.stats(0), ContractViolation);
  EXPECT_THROW(eng.request_stop(3, StopMode::kTask), ContractViolation);
  EXPECT_THROW(eng.cancel_timer(0), ContractViolation);
}

TEST(Engine, JobOutcomeQueries) {
  Engine eng(options_with_horizon(25_ms));
  const TaskHandle t = eng.add_task(simple_task("t", 5, 5_ms, 20_ms));
  eng.run();
  EXPECT_EQ(eng.job_outcome(t, 0), JobOutcome::kCompleted);
  EXPECT_EQ(eng.job_outcome(t, 1), JobOutcome::kCompleted);  // ends at 25
  EXPECT_THROW((void)eng.job_outcome(t, 7), ContractViolation);
  EXPECT_TRUE(eng.job_completed(t, 0));
  EXPECT_FALSE(eng.job_completed(t, 7));  // unreleased: just false
}

}  // namespace
}  // namespace rtft::rt
