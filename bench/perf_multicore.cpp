// Multicore-fleet microbenchmarks (src/multicore/): per-core engine
// throughput as the fleet widens, and the marginal cost of a mid-run
// core failure with backup fail-over.
//
//   BM_Multicore_Run/M       — place-and-run a fixed per-core workload
//                              (4 tasks, utilization 0.5 per core) on an
//                              M-core fleet, fault-free. jobs/s is the
//                              scaling trajectory: the fleet is one
//                              thread stepping M engines, so ideal
//                              scaling is flat sec/job as M grows.
//   BM_Multicore_Failover/M  — the same workload through run_with_fault
//                              killing the busiest core mid-horizon.
//                              The gap to BM_Multicore_Run prices the
//                              fail-over protocol (lost-job audit +
//                              backup activation + the denser post-
//                              failure schedule on the backup cores).
//   BM_Place_FirstFit/M      — FirstFitDecreasing::place alone, and
//   BM_Place_FaultAware/M      FaultAware::place (first fit, then the
//                              backup admission) on sweep-analysis-
//                              shaped draws: 24 tasks at total
//                              utilization 0.75 on M cores. The sweep's
//                              multicore stage pays the second row: it
//                              places first fit once and admits the
//                              backups over it.
//
// Workloads are seeded constants: the JSON trajectory
// (BENCH_perf_multicore.json via --json) is only comparable against an
// unchanged workload.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "multicore/multi_engine.hpp"
#include "multicore/partition.hpp"
#include "runtime/engine.hpp"
#include "sweep/generators.hpp"

namespace {

using namespace rtft;

/// 4 tasks and 0.35 utilization per core, so the per-core load is
/// constant while the fleet widens. 0.35 keeps fault-aware placement
/// feasible even at M=2, where one survivor must absorb the whole
/// failed core on top of its own primaries.
sched::TaskSet fleet_workload(std::size_t cores) {
  RandomTaskSetSpec spec;
  spec.tasks = 4 * cores;
  spec.total_utilization = 0.35 * static_cast<double>(cores);
  return sweep::make_seeded_task_set(2006 + cores, spec);
}

Duration workload_horizon(const sched::TaskSet& ts) {
  Duration max_period = Duration::zero();
  for (sched::TaskId id = 0; id < ts.size(); ++id) {
    if (ts[id].period > max_period) max_period = ts[id].period;
  }
  return max_period * 20;
}

std::int64_t jobs_released(multicore::MultiEngine& fleet) {
  std::int64_t released = 0;
  for (std::size_t c = 0; c < fleet.cores(); ++c) {
    rt::Engine& engine = fleet.core(c);
    for (rt::TaskHandle h = 0; h < engine.task_count(); ++h) {
      released += engine.stats(h).released;
    }
  }
  return released;
}

void report_job_rate(benchmark::State& state, std::int64_t jobs_per_iter) {
  const double jobs = static_cast<double>(jobs_per_iter) *
                      static_cast<double>(state.iterations());
  state.counters["jobs/s"] =
      benchmark::Counter(jobs, benchmark::Counter::kIsRate);
  state.counters["sec/job"] = benchmark::Counter(
      jobs, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["jobs/iter"] =
      benchmark::Counter(static_cast<double>(jobs_per_iter));
}

void run_fleet_bench(benchmark::State& state, bool with_fault) {
  const std::size_t cores = static_cast<std::size_t>(state.range(0));
  const sched::TaskSet ts = fleet_workload(cores);
  const Duration horizon = workload_horizon(ts);

  rt::EngineOptions eopts;
  eopts.horizon = Instant::epoch() + horizon;

  const multicore::FaultAware partitioner;
  const multicore::Placement placement = partitioner.place(ts, cores);
  if (!placement.feasible) {
    state.SkipWithError("fault-aware placement infeasible for the workload");
    return;
  }
  multicore::CoreFaultPlan fault;  // defaults to no fault.
  if (with_fault && cores > 1) {
    const std::vector<double> load =
        multicore::primary_utilization(ts, placement, cores);
    std::size_t victim = 0;
    for (std::size_t c = 1; c < load.size(); ++c) {
      if (load[c] > load[victim]) victim = c;
    }
    fault.core = victim;
    fault.at = Instant::epoch() + Duration::ns(horizon.count() / 2);
  }

  multicore::MultiEngine fleet;
  fleet.reserve(cores, ts.size(), 4 * ts.size() + 16);
  std::int64_t jobs_per_iter = 0;
  for (auto _ : state) {
    fleet.reset(cores, eopts);
    fleet.add_placed(ts, placement);
    const multicore::MultiRunReport report = fleet.run_with_fault(fault);
    benchmark::DoNotOptimize(report.total_misses);
    if (jobs_per_iter == 0) jobs_per_iter = jobs_released(fleet);
  }
  report_job_rate(state, jobs_per_iter);
}

void BM_Multicore_Run(benchmark::State& state) {
  run_fleet_bench(state, /*with_fault=*/false);
}
BENCHMARK(BM_Multicore_Run)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_Multicore_Failover(benchmark::State& state) {
  run_fleet_bench(state, /*with_fault=*/true);
}
BENCHMARK(BM_Multicore_Failover)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// The placement rows' draws, cycled one per iteration.
std::vector<sched::TaskSet> placement_draws() {
  RandomTaskSetSpec spec;
  spec.tasks = 24;
  spec.total_utilization = 0.75;
  std::vector<sched::TaskSet> draws;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    draws.push_back(sweep::make_seeded_task_set(seed, spec));
  }
  return draws;
}

void place_bench(benchmark::State& state,
                 const multicore::Partitioner& strategy) {
  const std::size_t cores = static_cast<std::size_t>(state.range(0));
  const std::vector<sched::TaskSet> draws = placement_draws();
  std::size_t i = 0;
  for (auto _ : state) {
    const multicore::Placement p =
        strategy.place(draws[i++ % draws.size()], cores);
    benchmark::DoNotOptimize(p.feasible);
  }
}

void BM_Place_FirstFit(benchmark::State& state) {
  place_bench(state, multicore::FirstFitDecreasing{});
}
BENCHMARK(BM_Place_FirstFit)->Arg(2)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_Place_FaultAware(benchmark::State& state) {
  place_bench(state, multicore::FaultAware{});
}
BENCHMARK(BM_Place_FaultAware)->Arg(2)->Arg(4)->Unit(benchmark::kMicrosecond);

}  // namespace
