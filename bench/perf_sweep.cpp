// Sweep-throughput microbenchmarks over the partition/run/merge triad.
//
// The sweep is the population-scale workload the ROADMAP points at
// (millions of scenarios); these benches put a scenarios/s number on a
// fixed mid-size grid so the trajectory is trackable per PR
// (BENCH_perf_sweep.json via --json):
//
//   BM_Sweep_SingleShard     — run_sweep(): the plan->run->merge of one
//                              full-range shard every caller gets.
//   BM_Sweep_FourShardMerge  — the same grid split 4 ways, each shard
//                              run in-process, then merged. The gap to
//                              SingleShard is the sharding overhead
//                              (per-shard pool spin-up + merge), i.e.
//                              what distribution costs before any
//                              transport is involved.
//   BM_Sweep_MergeOnly       — merge() alone on pre-run shards: the
//                              coordinator-side cost of combining
//                              results that arrive from elsewhere.
//   BM_Sweep_Multicore       — run_sweep() on the same grid with every
//                              cell placed on 2 or 4 cores: the
//                              multicore stage's placements and fleet
//                              runs on top of the single-core stages.
//
// SingleShard, FourShardMerge and Multicore run their scenarios on the
// sweep's worker threads, so they are timed in real time; MergeOnly
// runs on the benchmark thread.
#include <benchmark/benchmark.h>

#include <vector>

#include "support_bench.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace rtft;

using bench::report_scenario_rate;
using bench::sweep_bench_options;

void BM_Sweep_SingleShard(benchmark::State& state) {
  const sweep::SweepOptions opts = sweep_bench_options();
  for (auto _ : state) {
    const sweep::SweepReport report = sweep::run_sweep(opts);
    benchmark::DoNotOptimize(report.fingerprint);
  }
  report_scenario_rate(state, opts.scenario_count);
}
BENCHMARK(BM_Sweep_SingleShard)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Sweep_FourShardMerge(benchmark::State& state) {
  const sweep::SweepOptions opts = sweep_bench_options();
  const sweep::SweepPlan plan(opts);
  for (auto _ : state) {
    std::vector<sweep::ShardResult> shards;
    shards.reserve(4);
    for (std::uint64_t i = 0; i < 4; ++i) {
      shards.push_back(sweep::run_shard(plan.shard(i, 4), plan.options()));
    }
    const sweep::SweepReport report = sweep::merge(shards);
    benchmark::DoNotOptimize(report.fingerprint);
  }
  report_scenario_rate(state, opts.scenario_count);
}
BENCHMARK(BM_Sweep_FourShardMerge)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Sweep_MergeOnly(benchmark::State& state) {
  const sweep::SweepOptions opts = sweep_bench_options();
  const sweep::SweepPlan plan(opts);
  std::vector<sweep::ShardResult> shards;
  shards.reserve(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    shards.push_back(sweep::run_shard(plan.shard(i, 4), plan.options()));
  }
  for (auto _ : state) {
    const sweep::SweepReport report = sweep::merge(shards);
    benchmark::DoNotOptimize(report.fingerprint);
  }
  report_scenario_rate(state, opts.scenario_count);
}
BENCHMARK(BM_Sweep_MergeOnly)->Unit(benchmark::kMillisecond);

void BM_Sweep_Multicore(benchmark::State& state) {
  sweep::SweepOptions opts = sweep_bench_options();
  opts.grid.core_counts = {2, 4};
  for (auto _ : state) {
    const sweep::SweepReport report = sweep::run_sweep(opts);
    benchmark::DoNotOptimize(report.fingerprint);
  }
  report_scenario_rate(state, opts.scenario_count);
}
BENCHMARK(BM_Sweep_Multicore)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
