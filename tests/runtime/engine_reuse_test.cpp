// Engine::reset() — one engine reused across scenarios must be
// observationally identical to a fresh engine per scenario. This is the
// contract the sweep's per-worker ScenarioRunner relies on.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/assert.hpp"
#include "runtime/engine.hpp"
#include "support/paper_systems.hpp"
#include "trace/recorder.hpp"

namespace rtft::rt {
namespace {

using rtft::testsupport::table1_system;
using rtft::testsupport::table2_system;
using namespace rtft::literals;

EngineOptions traced_options(Duration horizon, trace::Sink* sink) {
  EngineOptions opts;
  opts.horizon = Instant::epoch() + horizon;
  opts.sink = sink;
  return opts;
}

std::vector<std::tuple<std::int64_t, int, std::uint32_t, std::int64_t>>
flatten(const trace::Recorder& rec) {
  std::vector<std::tuple<std::int64_t, int, std::uint32_t, std::int64_t>> out;
  for (const auto& e : rec.events()) {
    out.emplace_back(e.time.count(), static_cast<int>(e.kind), e.task, e.job);
  }
  return out;
}

void run_system(Engine& eng, const sched::TaskSet& ts) {
  for (const auto& t : ts) eng.add_task(t);
  eng.run();
}

TEST(EngineReuse, ResetReproducesAFreshEngineExactly) {
  // Fresh engine: the reference trace and stats.
  trace::Recorder fresh_rec;
  Engine fresh(traced_options(2000_ms, &fresh_rec));
  run_system(fresh, table2_system(1000_ms));

  // Reused engine: first a *different* workload (dirtying task slots,
  // event pool, stats), then reset into the reference scenario.
  trace::Recorder reused_rec;
  Engine reused(traced_options(500_ms, &reused_rec));
  run_system(reused, table1_system());
  reused_rec.clear();
  reused.reset(traced_options(2000_ms, &reused_rec));
  run_system(reused, table2_system(1000_ms));

  EXPECT_EQ(flatten(fresh_rec), flatten(reused_rec));
  ASSERT_EQ(fresh.task_count(), reused.task_count());
  for (std::size_t i = 0; i < fresh.task_count(); ++i) {
    EXPECT_EQ(fresh.stats(i).released, reused.stats(i).released);
    EXPECT_EQ(fresh.stats(i).completed, reused.stats(i).completed);
    EXPECT_EQ(fresh.stats(i).missed, reused.stats(i).missed);
    EXPECT_EQ(fresh.stats(i).max_response, reused.stats(i).max_response);
  }
}

TEST(EngineReuse, UnarmedEngineTakesNoTasksUntilReset) {
  // Pools build their engines unarmed; reset() arms them, and the armed
  // run is a fresh engine's exactly.
  Engine pooled;
  EXPECT_THROW(pooled.add_task(table1_system()[0]), ContractViolation);
  pooled.run();  // nothing to run.
  EXPECT_EQ(pooled.task_count(), 0u);

  trace::Recorder fresh_rec;
  Engine fresh(traced_options(2000_ms, &fresh_rec));
  run_system(fresh, table2_system(1000_ms));
  trace::Recorder pooled_rec;
  pooled.reset(traced_options(2000_ms, &pooled_rec));
  run_system(pooled, table2_system(1000_ms));
  EXPECT_EQ(flatten(fresh_rec), flatten(pooled_rec));
}

TEST(EngineReuse, ResetPreservesFifoTieBreaksOnATieHeavyScenario) {
  // Same-priority tasks with colliding releases: dispatch order within
  // the level is decided purely by the per-job ready sequence. Any
  // dispatcher state surviving reset() — a stale ready_seq, a leftover
  // ready-queue entry — would reorder these ties or corrupt dispatch.
  const auto build = [](Engine& eng) {
    for (int i = 0; i < 6; ++i) {
      eng.add_task(sched::TaskParams{"tie" + std::to_string(i), 5, 3_ms,
                                     30_ms, 30_ms, 0_ms});
    }
  };
  trace::Recorder fresh_rec;
  Engine fresh(traced_options(300_ms, &fresh_rec));
  build(fresh);
  fresh.run();

  // Dirty the dispatcher hard before the reference scenario: advance the
  // ready-sequence counter through many job starts, then abandon the run
  // mid-way so current jobs are still queued for dispatch at reset time.
  trace::Recorder reused_rec;
  Engine reused(traced_options(700_ms, &reused_rec));
  build(reused);
  // 335 ms is mid-burst: the 330 ms releases of all six tasks are still
  // draining, so several jobs sit in the ready queue right now.
  reused.run_until(Instant::epoch() + 335_ms);
  reused_rec.clear();
  reused.reset(traced_options(300_ms, &reused_rec));
  build(reused);
  reused.run();

  EXPECT_EQ(flatten(fresh_rec), flatten(reused_rec));
}

TEST(EngineReuse, ResetClearsTasksTimersAndClock) {
  Engine eng(traced_options(100_ms, nullptr));
  eng.add_task(sched::TaskParams{"t", 5, 1_ms, 10_ms, 10_ms, 0_ms});
  int fires = 0;
  eng.add_periodic_timer(Instant::epoch() + 5_ms, 10_ms,
                         [&](Engine&) { ++fires; });
  eng.run();
  EXPECT_GT(fires, 0);
  EXPECT_EQ(eng.task_count(), 1u);
  EXPECT_EQ(eng.now(), Instant::epoch() + 100_ms);

  eng.reset(traced_options(50_ms, nullptr));
  EXPECT_EQ(eng.task_count(), 0u);
  EXPECT_EQ(eng.now(), Instant::epoch());
  // Old handles are dead: the reset engine rejects them.
  EXPECT_THROW((void)eng.stats(0), ContractViolation);
  EXPECT_THROW(eng.cancel_timer(0), ContractViolation);
  // The old timer no longer fires.
  const int fires_before = fires;
  eng.add_task(sched::TaskParams{"u", 5, 1_ms, 10_ms, 10_ms, 0_ms});
  eng.run();
  EXPECT_EQ(fires, fires_before);
  EXPECT_EQ(eng.stats(0).released, 6);  // 0, 10, ..., 50
}

TEST(EngineReuse, ReuseAcrossShrinkingAndGrowingTaskSets) {
  // Slot reuse must not leak state between scenarios of different sizes.
  Engine eng(traced_options(100_ms, nullptr));
  const auto run_n = [&](std::size_t n, Duration cost) {
    eng.reset(traced_options(100_ms, nullptr));
    std::vector<TaskHandle> handles;
    for (std::size_t i = 0; i < n; ++i) {
      handles.push_back(eng.add_task(sched::TaskParams{
          "t" + std::to_string(i), 5, cost, 50_ms, 50_ms, 0_ms}));
    }
    eng.run();
    for (const TaskHandle h : handles) {
      EXPECT_EQ(eng.stats(h).released, 3);
      EXPECT_EQ(eng.stats(h).missed, 0);
      EXPECT_EQ(eng.stats(h).max_response,
                cost * static_cast<std::int64_t>(h + 1));
    }
  };
  run_n(8, 1_ms);
  run_n(2, 2_ms);   // shrink: slots 2..7 must be inert
  run_n(12, 1_ms);  // grow past the previous maximum
}

TEST(EngineReuse, SinkCanBeSwappedOnReset) {
  trace::Recorder a;
  trace::Recorder b;
  Engine eng(traced_options(20_ms, &a));
  eng.add_task(sched::TaskParams{"t", 5, 1_ms, 10_ms, 10_ms, 0_ms});
  eng.run();
  EXPECT_GT(a.size(), 0u);

  eng.reset(traced_options(20_ms, &b));
  eng.add_task(sched::TaskParams{"t", 5, 1_ms, 10_ms, 10_ms, 0_ms});
  eng.run();
  EXPECT_EQ(flatten(a), flatten(b));
  EXPECT_EQ(eng.sink(), &b);
}

TEST(EngineReuse, DefaultSinkDiscardsButStatsSurvive) {
  Engine eng(traced_options(100_ms, nullptr));
  EXPECT_EQ(eng.sink(), nullptr);
  const TaskHandle t =
      eng.add_task(sched::TaskParams{"t", 5, 7_ms, 50_ms, 50_ms, 0_ms});
  eng.run();
  EXPECT_EQ(eng.stats(t).released, 3);
  EXPECT_EQ(eng.stats(t).completed, 2);
  EXPECT_EQ(eng.stats(t).max_response, 7_ms);
}

}  // namespace
}  // namespace rtft::rt
