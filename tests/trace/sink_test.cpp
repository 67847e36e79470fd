#include "trace/sink.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "trace/recorder.hpp"

namespace rtft::trace {
namespace {

using namespace rtft::literals;

TraceEvent ev(Duration at, EventKind kind, std::uint32_t task = 0,
              std::int64_t job = 0, std::int64_t detail = 0) {
  return TraceEvent{Instant::epoch() + at, job, detail, task, kind};
}

TEST(CountingSink, MaintainsPerTaskCounters) {
  CountingSink sink;
  sink.record(ev(0_ms, EventKind::kJobRelease, 2, 0));
  sink.record(ev(1_ms, EventKind::kJobStart, 2, 0));
  sink.record(ev(3_ms, EventKind::kJobEnd, 2, 0, (3_ms).count()));
  sink.record(ev(4_ms, EventKind::kJobRelease, 2, 1));
  sink.record(ev(5_ms, EventKind::kJobStart, 2, 1));
  sink.record(ev(6_ms, EventKind::kJobEnd, 2, 1, (2_ms).count()));
  sink.record(ev(7_ms, EventKind::kDeadlineMiss, 2, 1));

  const TaskCounters& c = sink.counters(2);
  EXPECT_EQ(c.released, 2);
  EXPECT_EQ(c.started, 2);
  EXPECT_EQ(c.completed, 2);
  EXPECT_EQ(c.missed, 1);
  EXPECT_EQ(c.max_response, 3_ms);
  EXPECT_EQ(c.last_response, 2_ms);
  EXPECT_FALSE(c.stopped);
  EXPECT_EQ(sink.task_count(), 3u);  // ids 0..2 allocated
  EXPECT_EQ(sink.counters(0).released, 0);
}

TEST(CountingSink, TracksStopsFaultsAndPreemptions) {
  CountingSink sink;
  sink.record(ev(0_ms, EventKind::kDetectorFire, 1, 0));
  sink.record(ev(0_ms, EventKind::kFaultDetected, 1, 0));
  sink.record(ev(1_ms, EventKind::kJobPreempted, 1, 0));
  sink.record(ev(2_ms, EventKind::kJobAborted, 1, 0));
  sink.record(ev(2_ms, EventKind::kTaskStopped, 1, 0));
  const TaskCounters& c = sink.counters(1);
  EXPECT_EQ(c.detector_fires, 1);
  EXPECT_EQ(c.faults_detected, 1);
  EXPECT_EQ(c.preemptions, 1);
  EXPECT_EQ(c.aborted, 1);
  EXPECT_TRUE(c.stopped);
}

TEST(CountingSink, TasklessEventsCountOnlyInKindTotals) {
  CountingSink sink;
  sink.record(ev(1_ms, EventKind::kTimerFire, kNoTask, kNoJob, 7));
  EXPECT_EQ(sink.task_count(), 0u);
  EXPECT_EQ(sink.total(EventKind::kTimerFire), 1);
}

TEST(CountingSink, ResetForgetsEverything) {
  CountingSink sink;
  sink.record(ev(0_ms, EventKind::kJobRelease, 5, 0));
  sink.reset();
  EXPECT_EQ(sink.task_count(), 0u);
  EXPECT_EQ(sink.total(EventKind::kJobRelease), 0);
  sink.record(ev(0_ms, EventKind::kJobRelease, 1, 0));
  EXPECT_EQ(sink.counters(1).released, 1);
}

TEST(Sink, RecorderIsAFullFidelitySink) {
  Recorder rec;
  Sink& sink = rec;  // engines only see this interface
  sink.record(ev(1_ms, EventKind::kJobRelease, 0, 0));
  sink.record(Instant::epoch() + 2_ms, EventKind::kJobEnd, 0, 0, 5);
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.events()[1].detail, 5);
}

TEST(Sink, CountingMatchesRecorderDerivedCountsOnOneStream) {
  // Feed the same synthetic stream to both sinks; the counters must agree
  // with counts derived from the full trace.
  Recorder rec;
  CountingSink counting;
  const TraceEvent stream[] = {
      ev(0_ms, EventKind::kJobRelease, 0, 0),
      ev(0_ms, EventKind::kJobStart, 0, 0),
      ev(2_ms, EventKind::kJobPreempted, 0, 0),
      ev(2_ms, EventKind::kJobRelease, 1, 0),
      ev(2_ms, EventKind::kJobStart, 1, 0),
      ev(4_ms, EventKind::kJobEnd, 1, 0, (2_ms).count()),
      ev(4_ms, EventKind::kJobResumed, 0, 0),
      ev(5_ms, EventKind::kJobEnd, 0, 0, (5_ms).count()),
  };
  for (const TraceEvent& e : stream) {
    rec.record(e);
    counting.record(e);
  }
  for (std::uint32_t task = 0; task < 2; ++task) {
    EXPECT_EQ(counting.counters(task).completed,
              std::ranges::count_if(rec.events(), [task](const TraceEvent& e) {
                return e.task == task && e.kind == EventKind::kJobEnd;
              }));
  }
  EXPECT_EQ(counting.counters(0).preemptions, 1);
  EXPECT_EQ(counting.counters(0).max_response, 5_ms);
  EXPECT_EQ(counting.total(EventKind::kJobEnd),
            std::ranges::count(rec.events(), EventKind::kJobEnd,
                               &TraceEvent::kind));
}

}  // namespace
}  // namespace rtft::trace
