// Timer behaviour under engine reuse: a reset() engine must reproduce a
// fresh engine's timer traces exactly — one-shot, periodic and cancelled
// timers (the timing wheel keeps timer events in pooled slot lists and
// the cursor survives nothing across clear()).
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "runtime/engine.hpp"
#include "trace/recorder.hpp"

namespace rtft::rt {
namespace {

using namespace rtft::literals;

using FlatEvent =
    std::tuple<std::int64_t, int, std::uint32_t, std::int64_t, std::int64_t>;

std::vector<FlatEvent> flatten(const trace::Recorder& rec) {
  std::vector<FlatEvent> out;
  out.reserve(rec.size());
  for (const auto& e : rec.events()) {
    out.emplace_back(e.time.count(), static_cast<int>(e.kind), e.task, e.job,
                     e.detail);
  }
  return out;
}

struct TimerTrace {
  std::vector<FlatEvent> events;
  std::int64_t one_shot_fires = 0;
  std::int64_t periodic_fires = 0;
  std::int64_t cancelled_fires = 0;
};

/// Arms the reference timer scenario on `engine` and runs it: a task to
/// keep the processor busy, a one-shot timer, a fast periodic timer, and
/// a periodic timer cancelled mid-run from a one-shot handler.
TimerTrace run_timer_scenario(Engine& engine) {
  trace::Recorder rec;
  EngineOptions opts;
  opts.horizon = Instant::epoch() + 60_ms;
  opts.sink = &rec;
  engine.reset(opts);
  engine.add_task(sched::TaskParams{"t0", 5, 2_ms, 10_ms, 10_ms, 0_ms});

  TimerTrace out;
  engine.add_one_shot_timer(Instant::epoch() + 7_ms,
                            [&out](Engine&) { ++out.one_shot_fires; });
  engine.add_periodic_timer(Instant::epoch() + 1_ms, 4_ms,
                            [&out](Engine&) { ++out.periodic_fires; });
  const TimerHandle doomed = engine.add_periodic_timer(
      Instant::epoch() + 2_ms, 5_ms,
      [&out](Engine&) { ++out.cancelled_fires; });
  engine.add_one_shot_timer(Instant::epoch() + 23_ms,
                            [doomed](Engine& e) { e.cancel_timer(doomed); });
  engine.run();
  out.events = flatten(rec);
  return out;
}

void expect_same(const TimerTrace& a, const TimerTrace& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.one_shot_fires, b.one_shot_fires);
  EXPECT_EQ(a.periodic_fires, b.periodic_fires);
  EXPECT_EQ(a.cancelled_fires, b.cancelled_fires);
}

TEST(EngineTimerReuse, FreshAndResetEnginesAgree) {
  EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + 1_ms;
  Engine fresh(bootstrap);
  const TimerTrace reference = run_timer_scenario(fresh);
  ASSERT_EQ(reference.one_shot_fires, 1);
  // First fire at 1ms, then every 4ms until the 60ms horizon.
  ASSERT_EQ(reference.periodic_fires, 15);
  // Fires at 2, 7, 12, 17, 22ms; cancelled at 23ms.
  ASSERT_EQ(reference.cancelled_fires, 5);

  // A dirty engine — timers pending, one cancelled, mid-horizon state —
  // must come out of reset() indistinguishable from fresh.
  Engine reused(bootstrap);
  {
    trace::Recorder scratch;
    EngineOptions other;
    other.horizon = Instant::epoch() + 35_ms;
    other.sink = &scratch;
    reused.reset(other);
    reused.add_task(sched::TaskParams{"x", 2, 1_ms, 3_ms, 3_ms, 0_ms});
    const TimerHandle dead = reused.add_periodic_timer(
        Instant::epoch() + 500_us, 1_ms, [](Engine&) {});
    reused.add_one_shot_timer(Instant::epoch() + 9_ms,
                              [dead](Engine& e) { e.cancel_timer(dead); });
    reused.add_periodic_timer(Instant::epoch() + 100_us, 2_ms,
                              [](Engine&) {});
    // Stop mid-run so undispatched timer events are left in the queue.
    reused.run_until(Instant::epoch() + 20_ms);
  }
  expect_same(run_timer_scenario(reused), reference);

  // And again: repeated reuse (the sweep's thousands-of-runs pattern).
  expect_same(run_timer_scenario(reused), reference);
}

TEST(EngineTimerReuse, CancelledTimerStaysCancelledOnlyWithinItsRun) {
  // Cancelling timer k in run 1 must not affect the timer that happens
  // to get handle k in run 2 (slot reuse across reset()).
  EngineOptions opts;
  opts.horizon = Instant::epoch() + 10_ms;
  Engine engine(opts);
  const TimerHandle first =
      engine.add_periodic_timer(Instant::epoch() + 1_ms, 1_ms, [](Engine&) {});
  engine.cancel_timer(first);
  engine.run();

  engine.reset(opts);
  std::int64_t fires = 0;
  const TimerHandle second = engine.add_periodic_timer(
      Instant::epoch() + 1_ms, 1_ms, [&fires](Engine&) { ++fires; });
  EXPECT_EQ(first, second);  // same slot, recycled
  engine.run();
  EXPECT_EQ(fires, 10);
}

}  // namespace
}  // namespace rtft::rt
