#include "trace/recorder.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rtft::trace {
namespace {

using namespace rtft::literals;

TEST(Recorder, RecordsInOrder) {
  Recorder rec;
  rec.record(Instant::epoch() + 1_ms, EventKind::kJobRelease, 0, 0);
  rec.record(Instant::epoch() + 2_ms, EventKind::kJobStart, 0, 0);
  rec.record(Instant::epoch() + 3_ms, EventKind::kJobEnd, 0, 0, 2'000'000);
  ASSERT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.events()[0].kind, EventKind::kJobRelease);
  EXPECT_EQ(rec.events()[2].detail, 2'000'000);
}

TEST(Recorder, DefaultsForTasklessEvents) {
  Recorder rec;
  rec.record(Instant::epoch(), EventKind::kTimerFire);
  EXPECT_EQ(rec.events()[0].task, kNoTask);
  EXPECT_EQ(rec.events()[0].job, kNoJob);
}

TEST(Recorder, ClearEmpties) {
  Recorder rec;
  rec.record(Instant::epoch(), EventKind::kJobRelease, 0, 0);
  rec.clear();
  EXPECT_TRUE(rec.empty());
}

TEST(Recorder, NoReallocationWithinReserve) {
  Recorder rec(128);
  const TraceEvent* before = rec.events().data();
  for (int i = 0; i < 128; ++i) {
    rec.record(Instant::epoch(), EventKind::kJobRelease, 0, i);
  }
  EXPECT_EQ(rec.events().data(), before);
}

TEST(EventKindNames, AllDistinctAndStable) {
  EXPECT_EQ(to_string(EventKind::kJobRelease), "release");
  EXPECT_EQ(to_string(EventKind::kJobEnd), "end");
  EXPECT_EQ(to_string(EventKind::kDetectorFire), "detector-fire");
  EXPECT_EQ(to_string(EventKind::kFaultDetected), "fault-detected");
  EXPECT_EQ(to_string(EventKind::kTaskStopped), "task-stopped");
}

}  // namespace
}  // namespace rtft::trace
