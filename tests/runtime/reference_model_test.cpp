// Reference-model differential test — rt::Engine must reproduce the
// naive reference simulator (reference_engine.hpp: linear-scan dispatch,
// sorted-vector event queue, eager deadline checks) event for event on
// scenario_fuzz.hpp scenarios: the 200 golden-corpus seeds plus 600
// fresh ones (seeds 1-400, free-form and quantized), alternating the
// flat and closure forms of the injected overrun. Every engine trace
// must also pass trace::validate_trace, and the reference reproduces
// the frozen corpus hashes on its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "golden/engine_corpus.hpp"
#include "reference_engine.hpp"
#include "runtime/engine.hpp"
#include "scenario_fuzz.hpp"
#include "trace/recorder.hpp"
#include "trace/validator.hpp"

namespace rtft::rt {
namespace {

using namespace rtft::literals;
using fuzz::Scenario;

using golden::CorpusEntry;
constexpr const auto& kCorpus = golden::kEngineCorpus;

EngineOptions scenario_options(const Scenario& s, trace::Sink* sink) {
  EngineOptions opts;
  opts.horizon = Instant::epoch() + s.horizon;
  opts.stop_poll_latency = s.stop_poll_latency;
  opts.context_switch_cost = s.context_switch_cost;
  opts.sink = sink;
  return opts;
}

struct RunResult {
  std::vector<fuzz::FlatEvent> events;
  std::uint64_t trace_hash = 0;
  std::uint64_t stats_hash = 0;
};

/// Runs `s` on `engine` (an rt::Engine already reset onto `rec`, or a
/// fresh reference), through `cuts` first when given.
template <typename E>
RunResult run(E& engine, const Scenario& s, bool flat_overrun,
              const trace::Recorder& rec,
              const std::vector<Instant>& cuts = {}) {
  std::int64_t fires = 0;
  fuzz::apply_scenario(
      engine, s,
      [&](std::size_t i) { return fuzz::corpus_cost(s, i, flat_overrun); },
      fires);
  for (const Instant cut : cuts) engine.run_until(cut);
  engine.run();
  RunResult r;
  r.events = fuzz::flatten(rec);
  r.events.emplace_back(fires, -1, 0, 0, 0);  // handler-visible state
  r.trace_hash = fuzz::trace_hash(rec, fires);
  r.stats_hash = fuzz::stats_hash(engine);
  return r;
}

RunResult run_reference(const Scenario& s, bool flat_overrun) {
  trace::Recorder rec;
  ref::ReferenceEngine reference(scenario_options(s, &rec));
  return run(reference, s, flat_overrun, rec);
}

TEST(ReferenceModel, ReproducesTheGoldenCorpus) {
  for (const CorpusEntry& e : kCorpus) {
    const Scenario s = fuzz::random_scenario(e.seed, e.quantized);
    for (const bool flat : {true, false}) {
      const RunResult r = run_reference(s, flat);
      ASSERT_EQ(r.trace_hash, e.trace) << "seed " << e.seed;
      ASSERT_EQ(r.stats_hash, e.stats) << "seed " << e.seed;
      ASSERT_EQ(r.events.size(), e.events + 1) << "seed " << e.seed;
    }
  }
}

TEST(ReferenceModel, EngineMatchesReferenceOnEightHundredSeeds) {
  // One engine serves every scenario, so reuse through reset() is
  // covered too.
  EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + 1_ms;
  Engine engine(bootstrap);
  trace::Recorder rec;
  for (const bool quantized : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
      const Scenario s = fuzz::random_scenario(seed, quantized);
      const bool flat = seed % 2 != 0;
      rec.clear();
      engine.reset(scenario_options(s, &rec));
      const RunResult got = run(engine, s, flat, rec);
      const RunResult want = run_reference(s, flat);
      ASSERT_EQ(got.events, want.events)
          << "trace divergence at seed " << seed
          << (quantized ? " (quantized)" : " (free)");
      ASSERT_EQ(got.stats_hash, want.stats_hash) << "seed " << seed;
      const trace::ValidationResult v =
          trace::validate_trace(fuzz::task_set(s), rec);
      EXPECT_TRUE(v.ok()) << "seed " << seed << ": " << v.summary();
    }
  }
}

TEST(ReferenceModel, SplitEngineRunsMatchTheReference) {
  // run_until() segments must leave no trace: deadlines, completions and
  // timers straddling a cut land exactly where one uninterrupted
  // reference run puts them.
  EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + 1_ms;
  Engine engine(bootstrap);
  trace::Recorder rec;
  for (const bool quantized : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      const Scenario s = fuzz::random_scenario(seed, quantized);
      std::vector<Instant> cuts;
      for (std::int64_t k = 1; k <= 3; ++k) {
        // Quantized cuts fall on the grid, where events tie.
        const Duration cut = quantized
                                 ? Duration::ms(((s.horizon * k) / 4).count() /
                                                1'000'000)
                                 : (s.horizon * k) / 4 + Duration::ns(7 * k);
        cuts.push_back(Instant::epoch() + cut);
      }
      rec.clear();
      engine.reset(scenario_options(s, &rec));
      const RunResult got = run(engine, s, true, rec, cuts);
      const RunResult want = run_reference(s, true);
      ASSERT_EQ(got.events, want.events) << "seed " << seed;
      ASSERT_EQ(got.stats_hash, want.stats_hash) << "seed " << seed;
    }
  }
}

TEST(ReferenceModel, PartialRunsSeeDeadlinesThroughTheirStopPoint) {
  // run_until() observes every deadline dated up to its stop point
  // (inclusive) and none beyond.
  EngineOptions opts;
  opts.horizon = Instant::epoch() + 100_ms;
  Engine engine(opts);
  ref::ReferenceEngine reference(opts);
  // Cost 8ms > deadline 5ms: every job misses, at release + 5ms.
  const sched::TaskParams p{"t0", 3, 8_ms, 20_ms, 5_ms, 0_ms};
  const TaskHandle h = engine.add_task(p);
  (void)reference.add_task(p);
  const auto expect_missed = [&](Instant at, std::int64_t missed) {
    engine.run_until(at);
    reference.run_until(at);
    EXPECT_EQ(engine.stats(h).missed, missed) << to_string(at);
    EXPECT_EQ(reference.stats(h).missed, missed) << to_string(at);
  };
  expect_missed(Instant::epoch() + 4'999'999_ns, 0);
  expect_missed(Instant::epoch() + 5_ms, 1);  // exactly at the deadline
  expect_missed(Instant::epoch() + 44_ms, 2);
  expect_missed(Instant::epoch() + 100_ms, 5);
}

}  // namespace
}  // namespace rtft::rt
