// Sink equivalence — the proof that observation was decoupled without
// perturbing execution:
//
//   * the same scenario run under a full Recorder and under a
//     CountingSink yields identical engine TaskStats, and the counting
//     sink's event-derived counters agree with both;
//   * sweeps reproduce one fingerprint whatever the observation mode
//     (no sink vs full traces) and whether verdicts are kept.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/engine.hpp"
#include "sweep/generators.hpp"
#include "sweep/sweep.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"

namespace rtft::sweep {
namespace {

using namespace rtft::literals;

SweepOptions small_options() {
  SweepOptions opts;
  opts.scenario_count = 60;
  opts.workers = 3;
  opts.base_seed = 77;
  opts.grid.task_counts = {3, 5};
  opts.grid.utilizations = {0.6, 0.9};
  opts.grid.detector_costs = {Duration::zero(), Duration::us(200)};
  return opts;
}

std::vector<rt::TaskStats> run_under(const sched::TaskSet& ts,
                                     trace::Sink* sink) {
  rt::EngineOptions opts;
  opts.horizon = Instant::epoch() + Duration::s(2);
  opts.sink = sink;
  rt::Engine eng(opts);
  std::vector<rt::TaskHandle> handles;
  for (const auto& t : ts) handles.push_back(eng.add_task(t));
  eng.run();
  std::vector<rt::TaskStats> stats;
  for (const rt::TaskHandle h : handles) stats.push_back(eng.stats(h));
  return stats;
}

TEST(SinkEquivalence, SameScenarioSameTaskStatsUnderEverySink) {
  RandomTaskSetSpec spec;
  spec.tasks = 6;
  spec.total_utilization = 0.95;  // overloaded draws: misses + preemptions
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const sched::TaskSet ts = make_seeded_task_set(seed, spec);

    trace::Recorder recorder;
    trace::CountingSink counting;
    const auto with_recorder = run_under(ts, &recorder);
    const auto with_counting = run_under(ts, &counting);
    const auto with_nothing = run_under(ts, nullptr);

    ASSERT_EQ(with_recorder.size(), with_counting.size());
    for (std::size_t i = 0; i < with_recorder.size(); ++i) {
      const rt::TaskStats& a = with_recorder[i];
      const rt::TaskStats& b = with_counting[i];
      const rt::TaskStats& c = with_nothing[i];
      EXPECT_EQ(a.released, b.released) << "seed " << seed << " task " << i;
      EXPECT_EQ(a.completed, b.completed);
      EXPECT_EQ(a.missed, b.missed);
      EXPECT_EQ(a.aborted, b.aborted);
      EXPECT_EQ(a.stopped, b.stopped);
      EXPECT_EQ(a.max_response, b.max_response);
      EXPECT_EQ(a.last_response, b.last_response);
      EXPECT_EQ(a.released, c.released);
      EXPECT_EQ(a.missed, c.missed);
      EXPECT_EQ(a.max_response, c.max_response);

      // The counting sink's event-derived counters agree with the
      // engine's internally maintained statistics...
      const trace::TaskCounters& counters = counting.counters(i);
      EXPECT_EQ(counters.released, a.released);
      EXPECT_EQ(counters.completed, a.completed);
      EXPECT_EQ(counters.missed, a.missed);
      EXPECT_EQ(counters.aborted, a.aborted);
      EXPECT_EQ(counters.stopped, a.stopped);
      EXPECT_EQ(counters.max_response, a.max_response);
      EXPECT_EQ(counters.last_response, a.last_response);

      // ...and with counts derived from the full trace.
      EXPECT_EQ(static_cast<std::size_t>(counters.completed),
                [&] {
                  std::size_t n = 0;
                  for (const auto& e : recorder.events()) {
                    if (e.kind == trace::EventKind::kJobEnd &&
                        e.task == static_cast<std::uint32_t>(i)) {
                      ++n;
                    }
                  }
                  return n;
                }());
    }
    EXPECT_EQ(static_cast<std::size_t>(
                  counting.total(trace::EventKind::kJobRelease)),
              recorder.count_of_kind(trace::EventKind::kJobRelease));
  }
}

TEST(SinkEquivalence, FullTracesReproduceTheDefaultFingerprint) {
  SweepOptions opts = small_options();
  const SweepReport unobserved = run_sweep(opts);
  opts.full_traces = true;
  const SweepReport full = run_sweep(opts);
  EXPECT_EQ(unobserved.fingerprint, full.fingerprint);
  EXPECT_EQ(unobserved.totals.engine_clean, full.totals.engine_clean);
  EXPECT_EQ(unobserved.totals.detector_clean, full.totals.detector_clean);
}

TEST(SinkEquivalence, DroppingVerdictsReproducesTheFingerprint) {
  SweepOptions opts = small_options();
  const SweepReport kept = run_sweep(opts);
  opts.keep_verdicts = false;
  const SweepReport dropped = run_sweep(opts);
  EXPECT_EQ(kept.fingerprint, dropped.fingerprint);
  EXPECT_TRUE(dropped.verdicts.empty());
  EXPECT_FALSE(kept.verdicts.empty());
}

TEST(SinkEquivalence, ReusedRunnerMatchesOneShotRunScenario) {
  // One ScenarioRunner across many scenarios (the worker-pool usage)
  // must produce the same verdicts as a fresh runner per scenario.
  const SweepOptions opts = small_options();
  ScenarioRunner reused(opts);
  for (std::uint64_t i = 0; i < 24; ++i) {
    const ScenarioSpec spec = scenario_spec(opts, i);
    const ScenarioVerdict a = reused.run(spec);
    const ScenarioVerdict b = run_scenario(spec, opts);
    EXPECT_EQ(a.rta_schedulable, b.rta_schedulable) << "scenario " << i;
    EXPECT_EQ(a.engine_clean, b.engine_clean);
    EXPECT_EQ(a.nominal_misses, b.nominal_misses);
    EXPECT_EQ(a.allowance_feasible, b.allowance_feasible);
    EXPECT_EQ(a.allowance, b.allowance);
    EXPECT_EQ(a.allowance_honored, b.allowance_honored);
    EXPECT_EQ(a.detector_clean, b.detector_clean);
    EXPECT_EQ(a.detector_faults, b.detector_faults);
  }
}

}  // namespace
}  // namespace rtft::sweep
