// Observation-cost microbenchmarks for the trace::Sink seam.
//
// Three families:
//
//   BM_SinkAppend_*      — raw per-event cost of each sink.
//   BM_DetectorRun_*     — the sweep's detector-loaded scenario run (the
//                          hottest run_scenario step: detectors armed
//                          with per-fire CPU cost) under each observation
//                          mode. "FreshRecorder" reproduces the seed
//                          design the Sink refactor replaced: a fresh
//                          heap-allocated engine plus a 64K-event
//                          recorder per run. The acceptance bar for the
//                          refactor is ReusedCounting >= 20% faster than
//                          the full-Recorder modes.
//   BM_EngineLoop_*      — the engine inner loop with no sink (one null
//                          test per event) and with a CountingSink, at
//                          n = 8 / 32 / 128 tasks. The per-event
//                          denominator is jobs released + completed,
//                          identical in both, so the ns/event gap is
//                          what counting costs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/detector.hpp"
#include "core/treatment.hpp"
#include "runtime/engine.hpp"
#include "runtime/quantize.hpp"
#include "support_bench.hpp"
#include "sweep/generators.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"

namespace {

using namespace rtft;
using namespace rtft::literals;

constexpr std::size_t kAppendBatch = std::size_t{1} << 16;

trace::TraceEvent synthetic_event(std::size_t i) {
  return trace::TraceEvent{Instant::from_ns(static_cast<std::int64_t>(i)),
                           static_cast<std::int64_t>(i % 64),
                           static_cast<std::int64_t>(i),
                           static_cast<std::uint32_t>(i % 8),
                           trace::EventKind::kJobEnd};
}

void append_batch(trace::Sink& sink) {
  for (std::size_t i = 0; i < kAppendBatch; ++i) {
    sink.record(synthetic_event(i));
  }
}

/// Rate counters need the total event count over *all* iterations:
/// kIsRate divides by total elapsed time (a per-iteration constant
/// would inflate sec/event by the iteration count).
void report_append_counters(benchmark::State& state) {
  const double events = static_cast<double>(kAppendBatch) *
                        static_cast<double>(state.iterations());
  state.counters["events/s"] =
      benchmark::Counter(events, benchmark::Counter::kIsRate);
  state.counters["sec/event"] = benchmark::Counter(
      events, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["events/iter"] =
      benchmark::Counter(static_cast<double>(kAppendBatch));
}

void BM_SinkAppend_Recorder(benchmark::State& state) {
  trace::Recorder rec(kAppendBatch);
  for (auto _ : state) {
    rec.clear();
    append_batch(rec);
    benchmark::DoNotOptimize(rec.size());
  }
  report_append_counters(state);
}
BENCHMARK(BM_SinkAppend_Recorder);

void BM_SinkAppend_Counting(benchmark::State& state) {
  trace::CountingSink sink;
  for (auto _ : state) {
    sink.reset();
    append_batch(sink);
    benchmark::DoNotOptimize(sink.task_count());
  }
  report_append_counters(state);
}
BENCHMARK(BM_SinkAppend_Counting);

// ---------------------------------------------------------------------------
// The sweep's detector-loaded run.
// ---------------------------------------------------------------------------

struct DetectorScenario {
  sched::TaskSet ts;
  core::TreatmentPlan plan;
  Duration horizon;
  Duration fire_cost;
};

DetectorScenario make_scenario() {
  // A trace-heavy draw — short periods and a long window, the shape a
  // million-scenario sweep takes when horizons grow: a few hundred
  // thousand events per run, where the observation mode is a visible
  // fraction of the run.
  RandomTaskSetSpec spec;
  spec.tasks = 8;
  spec.total_utilization = 0.7;
  spec.min_period = Duration::ms(1);
  spec.max_period = Duration::ms(5);
  DetectorScenario s;
  s.ts = sweep::make_seeded_task_set(2006, spec);
  sched::AllowanceOptions aopts;
  aopts.granularity = Duration::us(100);
  s.plan = core::make_treatment_plan(s.ts, core::TreatmentPolicy::kDetectOnly,
                                     aopts);
  Duration max_period = Duration::zero();
  for (const auto& t : s.ts) max_period = std::max(max_period, t.period);
  s.horizon = max_period * 4000;
  s.fire_cost = Duration::us(20);
  return s;
}

/// One detector-loaded run on `engine` recording into `sink`.
std::int64_t detector_run(rt::Engine& engine, trace::Sink* sink,
                          const DetectorScenario& s) {
  rt::EngineOptions eopts;
  eopts.horizon = Instant::epoch() + s.horizon;
  eopts.sink = sink;
  engine.reset(eopts);
  std::vector<rt::TaskHandle> handles;
  handles.reserve(s.ts.size());
  for (const auto& t : s.ts) handles.push_back(engine.add_task(t));
  core::DetectorConfig dcfg;
  dcfg.quantizer = rt::Quantizer{Duration::ms(1), rt::Rounding::kNone};
  dcfg.fire_cost = s.fire_cost;
  core::DetectorBank bank(engine, handles, s.plan.thresholds, dcfg, {});
  engine.run();
  std::int64_t jobs = 0;
  for (const rt::TaskHandle h : handles) jobs += engine.stats(h).released;
  return jobs;
}

void report_rate(benchmark::State& state, std::int64_t jobs) {
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
  state.counters["sec/event"] = benchmark::Counter(
      static_cast<double>(jobs),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["events/iter"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kAvgIterations);
}

void BM_DetectorRun_FreshRecorder(benchmark::State& state) {
  // The seed design: every run pays a fresh engine + 64K-event recorder.
  const DetectorScenario s = make_scenario();
  std::int64_t jobs = 0;
  for (auto _ : state) {
    trace::Recorder rec;
    rt::EngineOptions eopts;
    eopts.horizon = Instant::epoch() + s.horizon;
    rt::Engine engine(eopts);
    jobs += detector_run(engine, &rec, s);
    benchmark::DoNotOptimize(rec.size());
  }
  report_rate(state, jobs);
}
BENCHMARK(BM_DetectorRun_FreshRecorder);

void BM_DetectorRun_ReusedRecorder(benchmark::State& state) {
  // A full trace per run: engine reused, recorder cleared between runs.
  const DetectorScenario s = make_scenario();
  trace::Recorder rec;
  rt::EngineOptions eopts;
  eopts.horizon = Instant::epoch() + s.horizon;
  rt::Engine engine(eopts);
  std::int64_t jobs = 0;
  for (auto _ : state) {
    rec.clear();
    jobs += detector_run(engine, &rec, s);
    benchmark::DoNotOptimize(rec.size());
  }
  report_rate(state, jobs);
}
BENCHMARK(BM_DetectorRun_ReusedRecorder);

void BM_DetectorRun_ReusedCounting(benchmark::State& state) {
  // The sweep's default observation mode after the Sink refactor.
  const DetectorScenario s = make_scenario();
  trace::CountingSink sink;
  rt::EngineOptions eopts;
  eopts.horizon = Instant::epoch() + s.horizon;
  rt::Engine engine(eopts);
  std::int64_t jobs = 0;
  for (auto _ : state) {
    sink.reset();
    jobs += detector_run(engine, &sink, s);
    benchmark::DoNotOptimize(sink.task_count());
  }
  report_rate(state, jobs);
}
BENCHMARK(BM_DetectorRun_ReusedCounting);

void BM_DetectorRun_ReusedNull(benchmark::State& state) {
  // Observation-free floor: what execution alone costs.
  const DetectorScenario s = make_scenario();
  rt::EngineOptions eopts;
  eopts.horizon = Instant::epoch() + s.horizon;
  rt::Engine engine(eopts);
  std::int64_t jobs = 0;
  for (auto _ : state) {
    jobs += detector_run(engine, nullptr, s);
  }
  report_rate(state, jobs);
}
BENCHMARK(BM_DetectorRun_ReusedNull);

// ---------------------------------------------------------------------------
// The engine inner loop, unobserved and counted.
// ---------------------------------------------------------------------------

void run_engine_loop(benchmark::State& state, bool count) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sched::TaskSet ts = rtft::bench::random_set(2031, n, 0.85);

  trace::CountingSink counting;
  rt::EngineOptions opts;
  opts.horizon = Instant::epoch() + Duration::s(2);
  if (count) opts.sink = &counting;
  rt::Engine engine(opts);
  engine.reserve(n, 4 * n);

  std::int64_t events = 0;  // jobs released + completed, both alike
  for (auto _ : state) {
    counting.reset();
    engine.reset(opts);
    std::vector<rt::TaskHandle> handles;
    handles.reserve(ts.size());
    for (const auto& t : ts) handles.push_back(engine.add_task(t));
    engine.run();
    for (const rt::TaskHandle h : handles) {
      events += engine.stats(h).released + engine.stats(h).completed;
    }
    benchmark::DoNotOptimize(counting.task_count());
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sec/event"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["events/iter"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
}

void BM_EngineLoop_NoSink(benchmark::State& state) {
  run_engine_loop(state, /*count=*/false);
}
void BM_EngineLoop_Counting(benchmark::State& state) {
  run_engine_loop(state, /*count=*/true);
}

BENCHMARK(BM_EngineLoop_NoSink)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_EngineLoop_Counting)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
