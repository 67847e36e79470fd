// Sink equivalence — the proof that observation was decoupled without
// perturbing execution:
//
//   * the same scenario run under a full Recorder and under a
//     CountingSink yields identical engine TaskStats, and the counting
//     sink's event-derived counters agree with both;
//   * the sweep's detector-loaded stage (per-fire detector cost, an
//     instant-stop handler, a non-default quantizer) reaches the same
//     TaskStats and fault count traced as it does with no sink, and
//     every trace it records validates.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/detector.hpp"
#include "core/treatment.hpp"
#include "runtime/engine.hpp"
#include "runtime/quantize.hpp"
#include "sched/feasibility.hpp"
#include "sweep/generators.hpp"
#include "sweep/sweep.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"
#include "trace/validator.hpp"

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
    EXPECT_EQ(counting.total(trace::EventKind::kJobRelease),
              std::ranges::count(recorder.events(),
                                 trace::EventKind::kJobRelease,
                                 &trace::TraceEvent::kind));
  }
}

/// What one detector-loaded run leaves behind.
struct DetectorRun {
  std::vector<rt::TaskStats> stats;
  std::int64_t faults = 0;
};

/// The sweep's detector-loaded stage for `ts` under kInstantStop, as
/// ScenarioRunner::run arms it: when the plan detects and stops, the
/// top-priority task overruns job 0 by a whole max period, its
/// detector fires (each fire costing spec.detector_cost of CPU) and the
/// handler stops it after the spec's poll latency; thresholds round to
/// the spec's quantum. Events go to `sink`, or nowhere when it is null.
DetectorRun run_detector_stage(const sched::TaskSet& ts,
                               const ScenarioSpec& spec,
                               const SweepOptions& opts, trace::Sink* sink) {
  Duration max_period = Duration::zero();
  for (const auto& t : ts) max_period = std::max(max_period, t.period);
  rt::EngineOptions eopts;
  eopts.horizon = Instant::epoch() + max_period * opts.horizon_periods;
  eopts.stop_poll_latency = spec.stop_poll_latency;
  eopts.sink = sink;
  rt::Engine engine(eopts);

  sched::AllowanceOptions aopts;
  aopts.granularity = opts.allowance_granularity;
  core::TreatmentPlan plan = core::make_treatment_plan_or_degrade(
      ts, opts.detector_policy, sched::is_feasible(ts), aopts);
  const sched::TaskId hog = ts.by_priority_desc().front();
  std::vector<rt::TaskHandle> handles;
  for (sched::TaskId id = 0; id < ts.size(); ++id) {
    rt::CostSpec cost;
    if (plan.detects && plan.stops && id == hog) {
      cost = rt::CostSpec::fixed_overrun(0, max_period);
    }
    handles.push_back(engine.add_task(ts[id], std::move(cost)));
  }
  std::optional<core::DetectorBank> bank;
  if (plan.detects) {
    core::DetectorConfig dcfg;
    dcfg.quantizer = rt::Quantizer{spec.quantum, rt::Rounding::kNearest};
    dcfg.fire_cost = spec.detector_cost;
    bank.emplace(engine, handles, std::move(plan.thresholds), dcfg,
                 [](rt::Engine& e, rt::TaskHandle task, std::int64_t) {
                   e.request_stop(task, rt::StopMode::kTask);
                 });
  }
  engine.run();

  DetectorRun out;
  for (const rt::TaskHandle h : handles) out.stats.push_back(engine.stats(h));
  out.faults = bank ? bank->total_faults() : 0;
  return out;
}

TEST(SinkEquivalence, DetectorLoadedStageIsTheSameTracedAndUntraced) {
  SweepOptions opts = small_options();
  opts.detector_policy = core::TreatmentPolicy::kInstantStop;
  opts.grid.stop_poll_latencies = {Duration::zero(), Duration::us(500)};
  opts.grid.quantizer_resolutions = {Duration::us(500)};
  std::int64_t faults = 0;
  std::int64_t stopped = 0;
  for (std::uint64_t i = 0; i < opts.scenario_count; ++i) {
    SCOPED_TRACE(::testing::Message() << "scenario " << i);
    const ScenarioSpec spec = scenario_spec(opts, i);
    ASSERT_NE(spec.quantum, Duration::ms(1));
    const sched::TaskSet ts = make_seeded_task_set(spec.seed, spec.tasks);
    trace::Recorder recorder;
    const DetectorRun traced = run_detector_stage(ts, spec, opts, &recorder);
    const DetectorRun untraced = run_detector_stage(ts, spec, opts, nullptr);

    EXPECT_EQ(traced.faults, untraced.faults);
    ASSERT_EQ(traced.stats.size(), untraced.stats.size());
    for (std::size_t t = 0; t < traced.stats.size(); ++t) {
      SCOPED_TRACE(::testing::Message() << "task " << t);
      const rt::TaskStats& a = traced.stats[t];
      const rt::TaskStats& b = untraced.stats[t];
      EXPECT_EQ(a.released, b.released);
      EXPECT_EQ(a.completed, b.completed);
      EXPECT_EQ(a.missed, b.missed);
      EXPECT_EQ(a.aborted, b.aborted);
      EXPECT_EQ(a.stopped, b.stopped);
      EXPECT_EQ(a.max_response, b.max_response);
      EXPECT_EQ(a.last_response, b.last_response);
      if (a.stopped) ++stopped;
    }
    faults += traced.faults;

    const trace::ValidationResult valid = trace::validate_trace(ts, recorder);
    EXPECT_TRUE(valid.ok()) << valid.summary();
  }
  // The corpus exercises what it claims to: detectors fired and the
  // handler stopped overrunning tasks.
  EXPECT_GT(faults, 0);
  EXPECT_GT(stopped, 0);
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
