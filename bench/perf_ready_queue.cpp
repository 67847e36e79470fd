// Dispatcher cost (L0): the incrementally maintained ready queue at
// n = 8 / 32 / 128 tasks. One seeded scenario replays on a reused engine
// (the sweep's usage pattern); the queue pays O(1) per lookup and
// O(log n) per job boundary, so ns/event should grow only slowly with n.
// The linear-scan dispatcher it replaced lives on as the test reference
// (tests/runtime/reference_engine.hpp).
#include <benchmark/benchmark.h>

#include "runtime/engine.hpp"
#include "support_bench.hpp"
#include "trace/sink.hpp"

namespace {

using namespace rtft;

void BM_Dispatch_ReadyQueue(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sched::TaskSet ts = rtft::bench::random_set(2026, n, 0.85);

  rt::EngineOptions opts;
  opts.horizon = Instant::epoch() + Duration::s(2);
  rt::Engine engine(opts);

  std::int64_t events = 0;  // queue events processed (jobs begin+end)
  for (auto _ : state) {
    engine.reset(opts);
    std::vector<rt::TaskHandle> handles;
    handles.reserve(ts.size());
    for (const auto& t : ts) handles.push_back(engine.add_task(t));
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

BENCHMARK(BM_Dispatch_ReadyQueue)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
