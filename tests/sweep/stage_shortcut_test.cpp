// The sweep's three engine shortcuts against the runs they skip:
//
//   * after a clean nominal run, stage 3 simulates the allowance run
//     only up to overrun_run_end, the instant it rejoins the nominal run;
//   * when the treatment plan detects nothing, stage 4 takes stage 2's
//     verdict instead of re-running it;
//   * when fault-aware placement equals first-fit's, the multicore stage
//     takes first-fit's fleet run for both instead of running it twice.
//
// The oracle for the first two is ScenarioRunner::run with stages 3 and
// 4 over the whole window and the detector-loaded run always simulated.
// Every verdict field must match it on 1,008 scenarios from the
// single-core cells of both e2ebench sweep grids. Those grids honor the
// allowance everywhere, so a run cut anywhere would pass that check; the
// second test drives the cut rule itself with overruns past the
// allowance, where runs do miss, and requires the cut run to count the
// whole window's misses. The third test's oracle places with both
// partitioners and runs every feasible placement's fleet in full.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "core/treatment.hpp"
#include "multicore/multi_engine.hpp"
#include "multicore/partition.hpp"
#include "runtime/engine.hpp"
#include "runtime/quantize.hpp"
#include "sched/allowance.hpp"
#include "sweep/export.hpp"
#include "sweep/generators.hpp"
#include "sweep/sweep.hpp"

namespace rtft::sweep {
namespace {

/// e2ebench's engine-bound grid (`sweep-exec`).
SweepOptions exec_grid(std::uint64_t seed) {
  SweepOptions o;
  o.base_seed = seed;
  o.grid.task_counts = {3, 5, 8};
  o.grid.utilizations = {0.5, 0.7, 0.9};
  o.grid.detector_costs = {Duration::zero(), Duration::us(200)};
  o.grid.stop_poll_latencies = {Duration::zero(), Duration::us(500)};
  o.grid.core_counts = {1, 2};
  o.detector_policy = core::TreatmentPolicy::kInstantStop;
  o.horizon_periods = 16;
  return o;
}

/// e2ebench's analysis-bound grid (`sweep-analysis`).
SweepOptions analysis_grid(std::uint64_t seed) {
  SweepOptions o;
  o.base_seed = seed;
  o.grid.task_counts = {16, 24, 28};
  o.grid.utilizations = {0.6, 0.75, 0.9};
  o.grid.core_counts = {1, 4};
  o.detector_policy = core::TreatmentPolicy::kSystemAllowance;
  o.horizon_periods = 2;
  return o;
}

Duration max_period(const sched::TaskSet& ts) {
  Duration m = Duration::zero();
  for (const auto& t : ts) m = std::max(m, t.period);
  return m;
}

/// One pooled engine, armed the way ScenarioRunner arms its runs.
class Runs {
 public:
  /// Re-arms for a run of `ts` over `horizon`; `faulty` (if set) gets
  /// `extra` added to the cost of its job 0.
  void arm(const sched::TaskSet& ts, Duration horizon, Duration poll,
           std::optional<sched::TaskId> faulty = {},
           Duration extra = Duration::zero()) {
    rt::EngineOptions eopts;
    eopts.horizon = Instant::epoch() + horizon;
    eopts.stop_poll_latency = poll;
    engine.reset(eopts);
    handles.clear();
    for (sched::TaskId id = 0; id < ts.size(); ++id) {
      rt::CostSpec cost;
      if (faulty && *faulty == id) {
        cost = rt::CostSpec::fixed_overrun(0, extra);
      }
      handles.push_back(engine.add_task(ts[id], std::move(cost)));
    }
  }

  [[nodiscard]] std::int64_t misses() const {
    std::int64_t n = 0;
    for (const rt::TaskHandle h : handles) n += engine.stats(h).missed;
    return n;
  }

  /// Misses of a run to `horizon` with `faulty`'s job 0 overrunning by
  /// `extra`.
  std::int64_t overrun_misses(const sched::TaskSet& ts, Duration horizon,
                              sched::TaskId faulty, Duration extra) {
    arm(ts, horizon, Duration::zero(), faulty, extra);
    engine.run();
    return misses();
  }

  rt::Engine engine;
  std::vector<rt::TaskHandle> handles;
};

/// What one thread of for_each_index owns.
struct Worker {
  explicit Worker(const SweepOptions& opts) : runner(opts) {}
  ScenarioRunner runner;
  Runs runs;
  multicore::MultiEngine fleet;
};

/// Calls fn(worker, i) for every i in [0, n), spread over up to four
/// threads that each own one Worker. fn must write only to slot i of
/// whatever it fills; the caller asserts on the main thread.
template <typename F>
void for_each_index(const SweepOptions& opts, std::size_t n, F fn) {
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&opts, &fn, n, t, threads] {
      Worker w(opts);
      for (std::size_t i = t; i < n; i += threads) fn(w, i);
    });
  }
  for (std::thread& th : pool) th.join();
}

/// The first `n` scenarios of `opts` in single-core cells, or in
/// multicore cells when `multicore`. The first two shortcuts do not
/// reach the multicore stage, the third reaches nothing else, so the
/// other cells would only add run time.
std::vector<ScenarioSpec> cell_specs(const SweepOptions& opts, std::size_t n,
                                     bool multicore) {
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t i = 0; specs.size() < n; ++i) {
    ScenarioSpec spec = scenario_spec(opts, i);
    if ((spec.cores > 1) == multicore) specs.push_back(spec);
  }
  return specs;
}

/// Stages 3 and 4 of ScenarioRunner::run as they ran before either
/// shortcut: the allowance run covers the whole window, and the
/// detector-loaded run is simulated even when the plan detects nothing.
/// Every other field, which no shortcut touches, comes from `base`.
ScenarioVerdict whole_window_verdict(const ScenarioSpec& spec,
                                     const SweepOptions& opts,
                                     const ScenarioVerdict& base,
                                     Runs& runs) {
  const sched::TaskSet ts = make_seeded_task_set(spec.seed, spec.tasks);
  const Duration horizon = max_period(ts) * opts.horizon_periods;
  const Duration poll = spec.stop_poll_latency;
  const sched::TaskId top = ts.by_priority_desc().front();
  ScenarioVerdict v = base;

  sched::AllowanceOptions aopts;
  aopts.granularity = opts.allowance_granularity;
  const sched::EquitableAllowance ea = sched::equitable_allowance(ts, aopts);
  v.allowance_feasible = ea.feasible_at_zero;
  v.allowance = Duration::zero();
  v.allowance_honored = false;
  if (ea.feasible_at_zero) {
    v.allowance = ea.allowance;
    runs.arm(ts, horizon, poll, top, ea.allowance);
    runs.engine.run();
    v.allowance_honored = runs.misses() == 0;
  }

  core::TreatmentPlan plan = core::make_treatment_plan_or_degrade(
      ts, opts.detector_policy, v.rta_schedulable, aopts);
  if (plan.detects && plan.stops) {
    runs.arm(ts, horizon, poll, top, max_period(ts));
  } else {
    runs.arm(ts, horizon, poll);
  }
  std::optional<core::DetectorBank> bank;
  if (plan.detects) {
    core::DetectorConfig dcfg;
    dcfg.quantizer =
        spec.quantum == Duration::ms(1)
            ? rt::Quantizer{Duration::ms(1), rt::Rounding::kNone}
            : rt::Quantizer{spec.quantum, rt::Rounding::kNearest};
    dcfg.fire_cost = spec.detector_cost;
    core::DetectorBank::FaultHandler handler;
    if (plan.stops) {
      handler = [](rt::Engine& e, rt::TaskHandle task, std::int64_t) {
        e.request_stop(task, rt::StopMode::kTask);
      };
    }
    bank.emplace(runs.engine, runs.handles, std::move(plan.thresholds), dcfg,
                 std::move(handler));
  }
  runs.engine.run();
  v.detector_clean = runs.misses() == 0;
  v.detector_faults = bank ? bank->total_faults() : 0;
  return v;
}

/// How the multicore stage reaches its fault-aware fields.
enum class FleetPath { kNoPlacement, kReused, kRun };

/// The multicore stage as it ran before the fleet reuse: each
/// partitioner places the set on its own, and each feasible placement's
/// fleet runs in full through the busiest core's death at mid-horizon.
/// Every other field comes from `base`. `path` says which way the stage
/// under test takes to the fault-aware fields.
ScenarioVerdict both_fleets_verdict(const ScenarioSpec& spec,
                                    const SweepOptions& opts,
                                    const ScenarioVerdict& base,
                                    multicore::MultiEngine& fleet,
                                    FleetPath& path) {
  const sched::TaskSet ts = make_seeded_task_set(spec.seed, spec.tasks);
  const Duration horizon = max_period(ts) * opts.horizon_periods;
  rt::EngineOptions eopts;
  eopts.horizon = Instant::epoch() + horizon;
  const Instant fault_at =
      Instant::epoch() +
      Duration::ns(static_cast<std::int64_t>(
          SweepOptions::core_fault_fraction *
          static_cast<double>(horizon.count())));
  ScenarioVerdict v = base;
  const auto place_and_run = [&](const multicore::Placement& p,
                                 bool& placed, bool& clean,
                                 std::int64_t& missed_tasks,
                                 std::int64_t& lost_jobs) {
    placed = p.feasible;
    clean = false;
    missed_tasks = 0;
    lost_jobs = 0;
    if (!p.feasible) return;
    fleet.reset(spec.cores, eopts);
    fleet.add_placed(ts, p);
    const std::vector<double> load =
        multicore::primary_utilization(ts, p, spec.cores);
    std::size_t victim = 0;
    for (std::size_t c = 1; c < load.size(); ++c) {
      if (load[c] > load[victim]) victim = c;
    }
    const multicore::MultiRunReport report =
        fleet.run_with_fault({victim, fault_at});
    clean = report.failover_clean;
    missed_tasks = report.missed_tasks;
    lost_jobs = report.total_lost_jobs;
  };
  const multicore::Placement ff =
      multicore::FirstFitDecreasing{}.place(ts, spec.cores);
  const multicore::Placement fa =
      multicore::FaultAware{}.place(ts, spec.cores);
  place_and_run(ff, v.ff_placement_feasible, v.ff_failover_clean,
                v.ff_missed_tasks, v.ff_lost_jobs);
  place_and_run(fa, v.fa_placement_feasible, v.fa_failover_clean,
                v.fa_missed_tasks, v.fa_lost_jobs);
  if (!fa.feasible) {
    path = FleetPath::kNoPlacement;
  } else if (fa.primary == ff.primary && fa.backup == ff.backup) {
    path = FleetPath::kReused;
  } else {
    path = FleetPath::kRun;
  }
  return v;
}

/// A verdict's export row: every ScenarioVerdict field, named.
std::string row(const ScenarioVerdict& v) {
  SweepReport report;
  report.verdicts = {v};
  return verdicts_csv(report);
}

TEST(StageShortcut, VerdictsEqualTheWholeWindowRuns) {
  // 24 draws in each single-core sweep-exec cell (36 cells) and 16 in
  // each single-core sweep-analysis cell (9 cells): 1,008 scenarios.
  struct Slice {
    SweepOptions opts;
    std::size_t count;
  };
  std::int64_t cut_allowance_runs = 0;
  std::int64_t skipped_detector_runs = 0;
  for (const Slice& slice :
       {Slice{exec_grid(1), 864}, Slice{analysis_grid(2), 144}}) {
    const std::vector<ScenarioSpec> specs =
        cell_specs(slice.opts, slice.count, false);
    std::vector<ScenarioVerdict> verdicts(specs.size());
    std::vector<std::string> expected(specs.size());
    for_each_index(slice.opts, specs.size(), [&](Worker& w, std::size_t i) {
      verdicts[i] = w.runner.run(specs[i]);
      expected[i] = row(
          whole_window_verdict(specs[i], slice.opts, verdicts[i], w.runs));
    });
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const ScenarioVerdict& v = verdicts[i];
      EXPECT_EQ(row(v), expected[i]) << "scenario " << v.index;
      if (v.allowance_feasible && v.engine_clean) ++cut_allowance_runs;
      if (!v.rta_schedulable) ++skipped_detector_runs;
    }
  }
  // Both shortcuts were taken.
  EXPECT_GT(cut_allowance_runs, 0);
  EXPECT_GT(skipped_detector_runs, 0);
}

TEST(StageShortcut, EqualPlacementsReuseTheFirstFitFleetRun) {
  // The multicore cells of both e2ebench grids (8 draws per cell), where
  // fault-aware placement mostly equals first-fit's, and a slice of 3-4
  // cores at U 1.2-2.4 where the placements and their verdicts mostly
  // differ.
  SweepOptions differ;
  differ.base_seed = 1;
  differ.grid.task_counts = {6, 10, 16};
  differ.grid.utilizations = {1.2, 1.8, 2.4};
  differ.grid.core_counts = {3, 4};
  differ.detector_policy = core::TreatmentPolicy::kNoDetection;
  differ.horizon_periods = 4;
  struct Slice {
    SweepOptions opts;
    std::size_t count;
  };
  std::size_t reused = 0;
  std::size_t run_differs = 0;
  std::size_t no_placement = 0;
  for (const Slice& slice : {Slice{exec_grid(4), 288},
                             Slice{analysis_grid(5), 72}, Slice{differ, 288}}) {
    const std::vector<ScenarioSpec> specs =
        cell_specs(slice.opts, slice.count, true);
    std::vector<ScenarioVerdict> verdicts(specs.size());
    std::vector<ScenarioVerdict> expected(specs.size());
    std::vector<FleetPath> paths(specs.size());
    for_each_index(slice.opts, specs.size(), [&](Worker& w, std::size_t i) {
      verdicts[i] = w.runner.run(specs[i]);
      expected[i] = both_fleets_verdict(specs[i], slice.opts, verdicts[i],
                                        w.fleet, paths[i]);
    });
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const ScenarioVerdict& v = expected[i];
      EXPECT_EQ(row(verdicts[i]), row(v)) << "scenario " << v.index;
      if (paths[i] == FleetPath::kNoPlacement && v.ff_placement_feasible) {
        ++no_placement;
      } else if (paths[i] == FleetPath::kReused) {
        ++reused;
      } else if (paths[i] == FleetPath::kRun &&
                 (v.fa_failover_clean != v.ff_failover_clean ||
                  v.fa_missed_tasks != v.ff_missed_tasks ||
                  v.fa_lost_jobs != v.ff_lost_jobs)) {
        ++run_differs;
      }
    }
  }
  // Every path was taken: a reused run, a second run whose verdict
  // differs from first-fit's, and a first fit whose backups fault-aware
  // placement could not admit.
  EXPECT_GT(reused, 0u);
  EXPECT_GT(run_differs, 0u);
  EXPECT_GT(no_placement, 0u);
}

TEST(StageShortcut, CutRunCountsTheWholeWindowsMissesPastTheAllowance) {
  // Overruns past A make runs miss, inside the busy period and after
  // it. Whenever the nominal run is clean, a run cut at overrun_run_end
  // must count exactly the misses of the whole window. A cut at the
  // horizon is the whole run, so only earlier cuts are simulated twice.
  const SweepOptions opts = exec_grid(3);
  struct Case {
    Duration overrun;
    Duration horizon;
    Duration end;
    std::int64_t whole = 0;
    std::int64_t cut = 0;
  };
  std::vector<std::vector<Case>> cases(72);  // every cell once
  for_each_index(opts, cases.size(), [&](Worker& w, std::size_t i) {
    Runs& runs = w.runs;
    const ScenarioSpec spec = scenario_spec(opts, i);
    const sched::TaskSet ts = make_seeded_task_set(spec.seed, spec.tasks);
    const Duration horizon = max_period(ts) * opts.horizon_periods;
    runs.arm(ts, horizon, Duration::zero());
    runs.engine.run();
    if (runs.misses() != 0) return;  // the cut needs a clean nominal run
    sched::AllowanceOptions aopts;
    aopts.granularity = opts.allowance_granularity;
    const sched::EquitableAllowance ea = sched::equitable_allowance(ts, aopts);
    if (!ea.feasible_at_zero) return;
    const Duration a = ea.allowance;
    const Duration g = opts.allowance_granularity;
    const Duration t = max_period(ts);
    const sched::TaskId top = ts.by_priority_desc().front();
    for (const Duration overrun :
         {a * 4 + g, a * 8 + g, a * 16 + g, t / 8, t / 4, t / 2, t}) {
      Case c{overrun, horizon, overrun_run_end(ts, overrun, horizon)};
      if (c.end == horizon) continue;
      c.whole = runs.overrun_misses(ts, horizon, top, overrun);
      if (c.end.is_positive() && c.end < horizon) {
        c.cut = runs.overrun_misses(ts, c.end, top, overrun);
      }
      cases[i].push_back(c);
    }
  });
  std::int64_t missed = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (const Case& c : cases[i]) {
      SCOPED_TRACE(::testing::Message()
                   << "scenario " << i << ", overrun " << c.overrun.count()
                   << " ns, cut at " << c.end.count() << " ns");
      EXPECT_TRUE(c.end.is_positive() && c.end < c.horizon);
      EXPECT_EQ(c.cut, c.whole);
      if (c.whole != 0) ++missed;
    }
  }
  // The corpus exercises what it claims: overrun runs that miss inside
  // a busy period closing before the horizon.
  EXPECT_GT(missed, 0);
}

}  // namespace
}  // namespace rtft::sweep
