// Cost of the flat CostSpec, the engine's per-job cost rule (an enum
// switch resolved inline on the actual_cost path):
//
//   BM_CostResolve_FlatNominal — raw per-resolve cost, no engine.
//   BM_CostModelRun_Flat       — the engine loop with every task under a
//                                fixed per-job deviation (the sweep's
//                                fault injection), at n = 8 / 32 / 128.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "runtime/cost_model.hpp"
#include "runtime/engine.hpp"
#include "support_bench.hpp"

namespace {

using namespace rtft;

constexpr std::size_t kResolveBatch = std::size_t{1} << 16;

// ---------------------------------------------------------------------------
// Raw resolution cost.
// ---------------------------------------------------------------------------

void report_resolve_counters(benchmark::State& state) {
  const double resolves = static_cast<double>(kResolveBatch) *
                          static_cast<double>(state.iterations());
  state.counters["resolves/s"] =
      benchmark::Counter(resolves, benchmark::Counter::kIsRate);
  state.counters["sec/resolve"] = benchmark::Counter(
      resolves, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void resolve_batch(benchmark::State& state, const rt::CostSpec& spec) {
  const Duration nominal = Duration::ms(2);
  for (auto _ : state) {
    Duration acc = Duration::zero();
    for (std::size_t i = 0; i < kResolveBatch; ++i) {
      acc = acc + spec.resolve(nominal, static_cast<std::int64_t>(i));
    }
    benchmark::DoNotOptimize(acc);
  }
  report_resolve_counters(state);
}

void BM_CostResolve_FlatNominal(benchmark::State& state) {
  resolve_batch(state, rt::CostSpec::nominal());
}
BENCHMARK(BM_CostResolve_FlatNominal);

// ---------------------------------------------------------------------------
// The engine loop.
// ---------------------------------------------------------------------------

void BM_CostModelRun_Flat(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sched::TaskSet ts = rtft::bench::random_set(2030, n, 0.85);

  rt::EngineOptions opts;  // no sink: isolate execution and cost rules
  opts.horizon = Instant::epoch() + Duration::s(2);
  rt::Engine engine(opts);
  engine.reserve(n, 4 * n);

  std::int64_t events = 0;  // jobs released + completed
  for (auto _ : state) {
    engine.reset(opts);
    std::vector<rt::TaskHandle> handles;
    handles.reserve(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      // One early job per task runs at half cost, so the workload never
      // exceeds the generator's.
      handles.push_back(engine.add_task(
          ts[i], rt::CostSpec::fixed_overrun(static_cast<std::int64_t>(i % 8),
                                             -(ts[i].cost / 2))));
    }
    engine.run();
    for (const rt::TaskHandle h : handles) {
      events += engine.stats(h).released + engine.stats(h).completed;
    }
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sec/event"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["events/iter"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_CostModelRun_Flat)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
