// Microbenchmarks of the virtual-time engine — the substrate that
// replaces the paper's jRate/TimeSys testbed. Reported as wall time per
// simulated run; the jobs/second counter gives the engine's throughput.
//
// Engines here run with no sink: these measure execution alone.
// perf_trace_sink measures what counting and full traces add.
#include <benchmark/benchmark.h>

#include "core/ft_system.hpp"
#include "core/paper.hpp"
#include "runtime/engine.hpp"
#include "support_bench.hpp"

namespace {

using namespace rtft;
using namespace rtft::literals;

void BM_Engine_PaperFigureRun(benchmark::State& state) {
  // One full Figure 5 experiment: build + run + report.
  std::int64_t jobs = 0;
  for (auto _ : state) {
    core::paper::Scenario s =
        core::paper::figures_scenario(core::TreatmentPolicy::kInstantStop);
    core::FaultTolerantSystem sys(std::move(s.config), std::move(s.faults));
    const core::RunReport report = sys.run();
    benchmark::DoNotOptimize(report.total_misses());
    for (const auto& t : report.tasks) jobs += t.stats.released;
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Engine_PaperFigureRun);

void BM_Engine_RandomSystem(benchmark::State& state) {
  // n periodic tasks over a 10 s horizon, no detectors.
  const auto n = static_cast<std::size_t>(state.range(0));
  const sched::TaskSet ts = rtft::bench::random_set(33, n, 0.7);
  std::int64_t jobs = 0;
  for (auto _ : state) {
    rt::EngineOptions opts;
    opts.horizon = Instant::epoch() + Duration::s(10);
    rt::Engine engine(opts);
    std::vector<rt::TaskHandle> handles;
    for (const auto& t : ts) handles.push_back(engine.add_task(t));
    engine.run();
    for (const rt::TaskHandle h : handles) jobs += engine.stats(h).released;
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_Engine_RandomSystem)->Arg(4)->Arg(16)->Arg(64);

void BM_Engine_PreemptionHeavy(benchmark::State& state) {
  // A fast high-priority task shredding a slow low-priority one:
  // stresses the preemption/resume path.
  std::int64_t jobs = 0;
  for (auto _ : state) {
    rt::EngineOptions opts;
    opts.horizon = Instant::epoch() + Duration::s(2);
    rt::Engine engine(opts);
    const rt::TaskHandle fast = engine.add_task(
        sched::TaskParams{"fast", 9, 200_us, 1_ms, 1_ms, 0_ms});
    const rt::TaskHandle slow = engine.add_task(
        sched::TaskParams{"slow", 1, 70_ms, 100_ms, 100_ms, 0_ms});
    engine.run();
    jobs += engine.stats(fast).released + engine.stats(slow).released;
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Engine_PreemptionHeavy);

void BM_Engine_TimerStorm(benchmark::State& state) {
  // Many periodic timers alongside one task: the detector-bank pattern
  // at scale.
  const auto timers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    rt::EngineOptions opts;
    opts.horizon = Instant::epoch() + Duration::s(1);
    rt::Engine engine(opts);
    engine.add_task(sched::TaskParams{"t", 5, 1_ms, 10_ms, 10_ms, 0_ms});
    std::int64_t fired = 0;
    for (std::size_t i = 0; i < timers; ++i) {
      const auto k = static_cast<std::int64_t>(i) + 1;
      engine.add_periodic_timer(Instant::epoch() + Duration::us(100 * k),
                                5_ms, [&fired](rt::Engine&) { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_Engine_TimerStorm)->Arg(1)->Arg(16)->Arg(128);

}  // namespace
