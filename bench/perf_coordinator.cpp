// Coordinator-overhead microbenchmarks: what fault-tolerant
// multi-process supervision costs on top of the in-process sweep.
//
//   BM_Coordinator_InProcessBaseline — run_sweep() on the bench grid;
//                                      the floor every distribution
//                                      scheme is measured against.
//   BM_Coordinator_ProcessFleet      — the same sweep through the
//                                      Coordinator + ProcessTransport:
//                                      fork/exec of real sweep_runner
//                                      workers, progress parsing, shard
//                                      files, validation, merge. The
//                                      gap to the baseline is the full
//                                      price of process isolation and
//                                      crash tolerance.
//   BM_Coordinator_ResumeFromCheckpoints — the same run over a directory
//                                      that already holds every shard
//                                      file: pure scan/validate/merge,
//                                      i.e. the restart latency after a
//                                      coordinator crash.
//
// ProcessFleet and InProcessBaseline run their scenarios in worker
// processes or on worker threads, so they are timed in real time;
// ResumeFromCheckpoints runs no scenario.
//
// The worker binary path comes from RTFT_SWEEP_RUNNER_BIN (set by the
// build from $<TARGET_FILE:sweep_runner>); without it the process
// benches are skipped so the bench target still builds when examples
// are off.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "support_bench.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace rtft;

using bench::report_scenario_rate;
using bench::sweep_bench_options;

#ifdef RTFT_SWEEP_RUNNER_BIN

sweep::CoordinatorOptions bench_copts(const std::string& dir) {
  sweep::CoordinatorOptions copts;
  copts.runner = RTFT_SWEEP_RUNNER_BIN;
  copts.output_dir = dir;
  copts.shards = 4;
  copts.max_procs = 2;
  copts.poll_interval = Duration::ms(5);  // tight: the bench is short.
  return copts;
}

/// Scratch directory under the process working dir, wiped per use.
std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path("bench_coordinator_scratch") / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

void BM_Coordinator_ProcessFleet(benchmark::State& state) {
  const sweep::SweepOptions opts = sweep_bench_options();
  for (auto _ : state) {
    const std::string dir = fresh_dir("fleet");
    sweep::ProcessTransport transport;
    sweep::Coordinator coordinator(opts, bench_copts(dir), transport);
    const sweep::CoordinatorResult result = coordinator.run();
    benchmark::DoNotOptimize(result.report.fingerprint);
  }
  report_scenario_rate(state, opts.scenario_count);
}
BENCHMARK(BM_Coordinator_ProcessFleet)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Coordinator_ResumeFromCheckpoints(benchmark::State& state) {
  const sweep::SweepOptions opts = sweep_bench_options();
  const std::string dir = fresh_dir("resume");
  {
    // Populate the checkpoints once; every iteration then resumes.
    sweep::ProcessTransport transport;
    sweep::Coordinator coordinator(opts, bench_copts(dir), transport);
    (void)coordinator.run();
  }
  for (auto _ : state) {
    sweep::ProcessTransport transport;
    sweep::Coordinator coordinator(opts, bench_copts(dir), transport);
    const sweep::CoordinatorResult result = coordinator.run();
    benchmark::DoNotOptimize(result.report.fingerprint);
  }
  report_scenario_rate(state, opts.scenario_count);
}
BENCHMARK(BM_Coordinator_ResumeFromCheckpoints)->Unit(benchmark::kMillisecond);

#endif  // RTFT_SWEEP_RUNNER_BIN

void BM_Coordinator_InProcessBaseline(benchmark::State& state) {
  const sweep::SweepOptions opts = sweep_bench_options();
  for (auto _ : state) {
    const sweep::SweepReport report = sweep::run_sweep(opts);
    benchmark::DoNotOptimize(report.fingerprint);
  }
  report_scenario_rate(state, opts.scenario_count);
}
BENCHMARK(BM_Coordinator_InProcessBaseline)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
