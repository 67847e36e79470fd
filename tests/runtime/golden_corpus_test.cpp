// Golden engine corpus — golden/engine_corpus.inc freezes, for 200
// scenario_fuzz.hpp scenarios (seeds 1-100, free-form and quantized
// tie-heavy grids), a hash of the full Recorder trace, of every
// TaskStats and of the CountingSink counters the engine produces. The
// corpus was generated while the engine still carried its linear-scan
// dispatcher, pooled-heap event queue and static sink modes, and every
// combination of them reproduced it. Each scenario now runs with the
// corpus' injected overrun in both its flat CostSpec and its closure
// form, under a Recorder, a CountingSink and no sink, and every run
// must reproduce the frozen hashes; every corpus trace must also pass
// trace::validate_trace. reference_model_test.cpp checks the engine
// against an independent naive simulator on fresh seeds.
//
// To regenerate after a deliberate semantic change, replace
// golden/engine_corpus.inc with the output of
//   rtft_runtime_golden_corpus_test --gtest_also_run_disabled_tests
//       --gtest_filter='*PrintCorpus'
// (the lines that are not gtest's own).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "golden/engine_corpus.hpp"
#include "runtime/engine.hpp"
#include "scenario_fuzz.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"
#include "trace/validator.hpp"

namespace rtft::rt {
namespace {

using namespace rtft::literals;
using fuzz::Scenario;

using golden::CorpusEntry;
constexpr const auto& kCorpus = golden::kEngineCorpus;

enum class Observation { kRecorder, kCounting, kNone };

/// What one run of a corpus scenario produced; a hash is zero when the
/// observation mode could not see it.
struct Observed {
  std::uint64_t trace = 0;
  std::uint64_t stats = 0;
  std::uint64_t counters = 0;
  std::size_t events = 0;
};

Observed run(Engine& engine, const Scenario& s, Observation obs,
             bool flat_overrun, trace::Recorder& rec) {
  trace::CountingSink counting;
  rec.clear();
  EngineOptions opts;
  opts.horizon = Instant::epoch() + s.horizon;
  opts.stop_poll_latency = s.stop_poll_latency;
  opts.context_switch_cost = s.context_switch_cost;
  switch (obs) {
    case Observation::kRecorder: opts.sink = &rec; break;
    case Observation::kCounting: opts.sink = &counting; break;
    case Observation::kNone: break;
  }
  engine.reset(opts);
  std::int64_t fires = 0;
  fuzz::apply_scenario(
      engine, s,
      [&](std::size_t i) { return fuzz::corpus_cost(s, i, flat_overrun); },
      fires);
  engine.run();
  Observed out;
  out.stats = fuzz::stats_hash(engine);
  if (obs == Observation::kRecorder) {
    out.trace = fuzz::trace_hash(rec, fires);
    out.events = rec.size();
  }
  if (obs == Observation::kCounting) {
    out.counters = fuzz::counters_hash(counting, engine.task_count());
  }
  return out;
}

std::string corpus_line(const CorpusEntry& e) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{%" PRIu64 ", %s, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL, %zu},",
                e.seed, e.quantized ? "true" : "false", e.trace, e.stats,
                e.counters, e.events);
  return buf;
}

/// The entry the engine produces today.
CorpusEntry measure(Engine& engine, std::uint64_t seed, bool quantized) {
  const Scenario s = fuzz::random_scenario(seed, quantized);
  trace::Recorder rec;
  const Observed traced = run(engine, s, Observation::kRecorder, true, rec);
  const Observed counted = run(engine, s, Observation::kCounting, true, rec);
  return CorpusEntry{seed,          quantized,       traced.trace,
                     traced.stats,  counted.counters, traced.events};
}

TEST(GoldenCorpus, CoversTwoHundredFreeAndQuantizedSeeds) {
  std::size_t free = 0;
  std::size_t quantized = 0;
  for (const CorpusEntry& e : kCorpus) (e.quantized ? quantized : free)++;
  EXPECT_EQ(free, 100u);
  EXPECT_EQ(quantized, 100u);
}

TEST(GoldenCorpus, EveryObservationAndOverrunFormReproducesTheCorpus) {
  // One engine serves every run, so state surviving reset() across
  // scenarios and configurations is covered too.
  EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + 1_ms;
  Engine engine(bootstrap);
  trace::Recorder rec;
  for (const CorpusEntry& e : kCorpus) {
    const Scenario s = fuzz::random_scenario(e.seed, e.quantized);
    const std::string at = "seed " + std::to_string(e.seed) +
                           (e.quantized ? " (quantized)" : " (free)");
    for (const Observation obs :
         {Observation::kRecorder, Observation::kCounting, Observation::kNone}) {
      for (const bool flat : {true, false}) {
        const Observed o = run(engine, s, obs, flat, rec);
        const bool traced = obs == Observation::kRecorder;
        const bool counted = obs == Observation::kCounting;
        const bool match =
            o.stats == e.stats &&
            (!traced || (o.trace == e.trace && o.events == e.events)) &&
            (!counted || o.counters == e.counters);
        ASSERT_TRUE(match)
            << at << ", observation " << static_cast<int>(obs)
            << (flat ? ", flat overrun" : ", closure overrun")
            << "; measured "
            << corpus_line(measure(engine, e.seed, e.quantized));
      }
    }
  }
}

TEST(GoldenCorpus, EveryCorpusTraceValidates) {
  EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + 1_ms;
  Engine engine(bootstrap);
  trace::Recorder rec;
  for (const CorpusEntry& e : kCorpus) {
    const Scenario s = fuzz::random_scenario(e.seed, e.quantized);
    (void)run(engine, s, Observation::kRecorder, true, rec);
    const trace::ValidationResult v =
        trace::validate_trace(fuzz::task_set(s), rec);
    EXPECT_TRUE(v.ok()) << "seed " << e.seed << ": " << v.summary();
  }
}

TEST(GoldenCorpus, DISABLED_PrintCorpus) {
  EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + 1_ms;
  Engine engine(bootstrap);
  std::printf(
      "// Generated by golden_corpus_test's DISABLED_PrintCorpus:\n"
      "// {seed, quantized, trace hash, stats hash, counters hash, events}\n");
  for (const bool quantized : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      std::printf("%s\n",
                  corpus_line(measure(engine, seed, quantized)).c_str());
    }
  }
}

}  // namespace
}  // namespace rtft::rt
