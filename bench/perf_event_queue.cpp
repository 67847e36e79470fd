// Event-queue cost (L0): the engine's binary event heap with lazy
// deadline validation, at n = 8 / 32 / 128 tasks on a periodic-heavy
// workload (BM_EventQueue_Releases) and at 16 / 64 tasks under a swarm
// of periodic timers (BM_EventQueue_Timers). One seeded scenario replays
// on a reused engine (the sweep's usage pattern); the denominator is
// workload-defined — jobs released + completed, plus timer fires — so
// ns/event tracks queue and dispatch cost. The heap holds one release
// per task and one fire per timer: a dispatched release or periodic
// timer hands its slot to its successor with one sift-down, and no
// deadline check is queued. The sorted-vector queue with eager checks
// lives on as the test reference (tests/runtime/reference_engine.hpp).
#include <benchmark/benchmark.h>

#include "runtime/engine.hpp"
#include "support_bench.hpp"
#include "trace/sink.hpp"

namespace {

using namespace rtft;

void BM_EventQueue_Releases(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sched::TaskSet ts = rtft::bench::random_set(2027, n, 0.85);

  rt::EngineOptions opts;
  opts.horizon = Instant::epoch() + Duration::s(2);
  rt::Engine engine(opts);
  engine.reserve(n, 4 * n);

  std::int64_t events = 0;  // jobs released + completed
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

BENCHMARK(BM_EventQueue_Releases)->Arg(8)->Arg(32)->Arg(128);

// Timer-heavy variant: a detector-bank-like swarm of periodic timers on
// top of the tasks, so the heap is measured at tasks + timers entries
// and on non-release traffic.
void BM_EventQueue_Timers(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sched::TaskSet ts = rtft::bench::random_set(2028, n, 0.6);

  rt::EngineOptions opts;
  opts.horizon = Instant::epoch() + Duration::s(2);
  rt::Engine engine(opts);

  std::int64_t events = 0;
  for (auto _ : state) {
    engine.reset(opts);
    std::vector<rt::TaskHandle> handles;
    handles.reserve(ts.size());
    for (const auto& t : ts) handles.push_back(engine.add_task(t));
    std::int64_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto k = static_cast<std::int64_t>(i) + 1;
      engine.add_periodic_timer(Instant::epoch() + Duration::us(137 * k),
                                Duration::ms(2 + (k % 7)),
                                [&fired](rt::Engine&) { ++fired; });
    }
    engine.run();
    events += fired;
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

BENCHMARK(BM_EventQueue_Timers)->Arg(16)->Arg(64);

}  // namespace
