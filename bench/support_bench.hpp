// Shared workload builders for the perf benchmarks — thin aliases over the
// sweep generators (src/sweep/generators.*), which own the construction —
// plus the one sweep grid and scenario-rate counters the sweep and
// coordinator benches share.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>

#include "sweep/generators.hpp"
#include "sweep/sweep.hpp"

namespace rtft::bench {

/// Deterministic random constrained-deadline set.
inline sched::TaskSet random_set(std::uint64_t seed, std::size_t tasks,
                                 double utilization) {
  RandomTaskSetSpec spec;
  spec.tasks = tasks;
  spec.total_utilization = utilization;
  return sweep::make_seeded_task_set(seed, spec);
}

/// The sweep benches' fixed mid-size grid: 8 cells x 12 scenarios, two
/// detector costs, on 2 worker threads — large enough that per-scenario
/// work dominates, small enough for a benchmark iteration. Deliberately
/// constant across changes: a snapshot is only comparable against an
/// unchanged workload, and perf_sweep and perf_coordinator run the same
/// one.
inline sweep::SweepOptions sweep_bench_options() {
  sweep::SweepOptions opts;
  opts.scenario_count = 96;
  opts.workers = 2;
  opts.base_seed = 2006;
  opts.grid.task_counts = {3, 5};
  opts.grid.utilizations = {0.6, 0.9};
  opts.grid.detector_costs = {Duration::zero(), Duration::us(200)};
  return opts;
}

/// Scenarios per second (and seconds per scenario) over the row's
/// iterations. The rate divides by the row's time: a row whose scenarios
/// run on worker threads or in worker processes must be timed with
/// UseRealTime(), or the rate counts only the benchmark thread's cpu.
inline void report_scenario_rate(benchmark::State& state,
                                 std::uint64_t per_iter) {
  const double scenarios = static_cast<double>(per_iter) *
                           static_cast<double>(state.iterations());
  state.counters["scenarios/s"] =
      benchmark::Counter(scenarios, benchmark::Counter::kIsRate);
  state.counters["sec/event"] = benchmark::Counter(
      scenarios, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["scenarios/iter"] =
      benchmark::Counter(static_cast<double>(per_iter));
}

}  // namespace rtft::bench
