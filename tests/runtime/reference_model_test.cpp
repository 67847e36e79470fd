// Reference-model differential test — rt::Engine must reproduce the
// naive reference simulator (reference_engine.hpp: linear-scan dispatch,
// sorted-vector event queue, eager deadline checks) event for event on
// scenario_fuzz.hpp scenarios: the 200 golden-corpus seeds plus 600
// fresh ones (seeds 1-400, free-form and quantized), alternating the
// flat and closure forms of the injected overrun. Every engine trace
// must also pass trace::validate_trace, and the reference reproduces
// the frozen corpus hashes on its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
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

/// The calls both engines get after cut `k` of a perturbed split run:
/// even cuts inject overhead, odd ones request a stop in either mode.
template <typename E>
void perturb(E& engine, const Scenario& s, std::size_t k) {
  if (k % 2 == 0) {
    engine.inject_overhead(1_ms);
  } else {
    engine.request_stop(k % s.tasks.size(),
                        k % 4 == 1 ? StopMode::kJob : StopMode::kTask);
  }
}

/// Runs `s` on `engine` (an rt::Engine already reset onto `rec`, or a
/// fresh reference), through `cuts` first when given, perturbing the
/// run after each cut when asked.
template <typename E>
RunResult run(E& engine, const Scenario& s, bool flat_overrun,
              const trace::Recorder& rec,
              const std::vector<Instant>& cuts = {}, bool perturbed = false) {
  std::int64_t fires = 0;
  fuzz::apply_scenario(
      engine, s,
      [&](std::size_t i) { return fuzz::corpus_cost(s, i, flat_overrun); },
      fires);
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    engine.run_until(cuts[k]);
    if (perturbed) perturb(engine, s, k);
  }
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

/// Three cuts for `s` on the reference's own CPU-slot ends. Cut k is the
/// first overhead end (even k) or kJobEnd date (odd k, and the fallback
/// either way) past k+1 quarters of the horizon and past cut k-1, in a
/// reference run already cut and perturbed at cuts 0..k-1, so every cut
/// lands where the perturbed run's slot really ends.
std::vector<Instant> slot_cuts(const Scenario& s, std::size_t& overhead_cuts,
                               std::size_t& job_cuts) {
  std::vector<Instant> cuts;
  for (std::int64_t k = 0; k < 3; ++k) {
    trace::Recorder rec;
    ref::ReferenceEngine reference(scenario_options(s, &rec));
    (void)run(reference, s, true, rec, cuts, /*perturbed=*/true);
    std::vector<Instant> job_ends;
    for (const trace::TraceEvent& e : rec.events()) {
      if (e.kind == trace::EventKind::kJobEnd) job_ends.push_back(e.time);
    }
    const Instant floor =
        std::max(cuts.empty() ? Instant::epoch() : cuts.back(),
                 Instant::epoch() + (s.horizon * (k + 1)) / 4);
    const auto first_past = [&](const std::vector<Instant>& dates) {
      const auto it = std::upper_bound(dates.begin(), dates.end(), floor);
      return it == dates.end() ? std::optional<Instant>() : *it;
    };
    const std::optional<Instant> overhead_end =
        k % 2 == 0 ? first_past(reference.overhead_ends()) : std::nullopt;
    const std::optional<Instant> job_end = first_past(job_ends);
    if (overhead_end) {
      cuts.push_back(*overhead_end);
      ++overhead_cuts;
    } else if (job_end) {
      cuts.push_back(*job_end);
      ++job_cuts;
    } else {
      break;
    }
  }
  return cuts;
}

TEST(ReferenceModel, SlotBoundaryRunsMatchTheReference) {
  // A run_until() whose inclusive stop point is exactly where the running
  // job or overhead interval ends must end that slot inside the segment,
  // as the reference dispatches its queued completion there; overhead
  // injected and stops requested at the cut then see the same state.
  EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + 1_ms;
  Engine engine(bootstrap);
  trace::Recorder rec;
  std::size_t overhead_cuts = 0;
  std::size_t job_cuts = 0;
  for (const bool quantized : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      const Scenario s = fuzz::random_scenario(seed, quantized);
      const std::vector<Instant> cuts = slot_cuts(s, overhead_cuts, job_cuts);
      rec.clear();
      engine.reset(scenario_options(s, &rec));
      const RunResult got = run(engine, s, true, rec, cuts, true);
      trace::Recorder ref_rec;
      ref::ReferenceEngine reference(scenario_options(s, &ref_rec));
      const RunResult want = run(reference, s, true, ref_rec, cuts, true);
      ASSERT_EQ(got.events, want.events)
          << "seed " << seed << (quantized ? " (quantized)" : " (free)");
      ASSERT_EQ(got.stats_hash, want.stats_hash) << "seed " << seed;
    }
  }
  // Both kinds of slot end were cut at, many times over.
  EXPECT_GT(overhead_cuts, 100u);
  EXPECT_GT(job_cuts, 100u);
}

/// A hand-built scenario that keeps the event queue deep, on a 1 ms grid
/// so that many events share a date: 40 tasks and 80 timers (60
/// periodic, 20 one-shot, 16 cancelled mid-run), four stop requests for
/// one task and two for others at one date, all in flight together
/// through the 2 ms poll latency, and overhead injected at that date.
Scenario deep_queue_scenario() {
  Scenario s;
  s.horizon = 400_ms;
  s.stop_poll_latency = 2_ms;
  for (std::int64_t i = 0; i < 40; ++i) {
    sched::TaskParams p;
    p.name = "t" + std::to_string(i);
    p.priority = static_cast<int>(1 + i % 5);
    p.period = Duration::ms(20 + 5 * (i % 21));
    p.cost = Duration::ms(1 + i % 2);
    p.deadline = i % 7 == 0 ? p.cost * 2 : p.period;  // some must miss.
    p.offset = Duration::ms(5 * (i % 3));
    s.tasks.push_back(p);
    s.cost_seeds.push_back(0x5eed + static_cast<std::uint64_t>(i));
  }
  for (std::int64_t k = 0; k < 80; ++k) {
    fuzz::TimerPlan t;
    const bool one_shot = k % 4 == 3;
    t.first = one_shot ? Duration::ms((k * 37) % 390) : Duration::ms(k % 10);
    t.period = one_shot ? Duration::zero() : Duration::ms(1 + k % 25);
    t.cancel_at =
        k % 5 == 1 ? Duration::ms(100 + 10 * (k % 20)) : Duration::zero();
    s.timers.push_back(t);
  }
  for (const StopMode mode :
       {StopMode::kJob, StopMode::kJob, StopMode::kJob, StopMode::kTask}) {
    s.stops.push_back(fuzz::StopPlan{120_ms, 7, mode, Duration::zero()});
  }
  s.stops.push_back(fuzz::StopPlan{120_ms, 8, StopMode::kJob, 0_ms});
  s.stops.push_back(fuzz::StopPlan{120_ms, 9, StopMode::kTask, 0_ms});
  s.overheads.push_back(fuzz::OverheadPlan{120_ms, 1_ms});
  s.overrun = fuzz::OverrunPlan{5, 1, 3_ms};
  return s;
}

TEST(ReferenceModel, DeepQueueMatchesTheReference) {
  // The fuzz scenarios queue about two dozen events at most, but
  // FtSystem and the RTSJ facade accept any number of timers. Every
  // task, timer, stop, overhead and cancellation queues one event when
  // registered, so the heap starts more than 100 deep.
  const Scenario s = deep_queue_scenario();
  std::size_t cancels = 0;
  for (const fuzz::TimerPlan& t : s.timers) {
    cancels += t.cancel_at.is_positive() ? 1 : 0;
  }
  ASSERT_GE(s.tasks.size() + s.timers.size() + s.stops.size() +
                s.overheads.size() + cancels,
            100u);

  EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + 1_ms;
  Engine engine(bootstrap);
  trace::Recorder rec;
  // Straight runs, and runs cut where the stops are requested and where
  // they take effect, in both overrun forms.
  const std::vector<Instant> cuts = {Instant::epoch() + 120_ms,
                                     Instant::epoch() + 122_ms,
                                     Instant::epoch() + 250_ms};
  for (const bool flat : {true, false}) {
    for (const bool cut : {false, true}) {
      rec.clear();
      engine.reset(scenario_options(s, &rec));
      const RunResult got =
          run(engine, s, flat, rec, cut ? cuts : std::vector<Instant>{});
      const RunResult want = run_reference(s, flat);
      ASSERT_EQ(got.events, want.events) << "flat " << flat << " cut " << cut;
      ASSERT_EQ(got.stats_hash, want.stats_hash) << "flat " << flat;
      const trace::ValidationResult v =
          trace::validate_trace(fuzz::task_set(s), rec);
      EXPECT_TRUE(v.ok()) << v.summary();
      // The stops really were in flight together: six requests, two of
      // them ending their task.
      std::int64_t requested = 0;
      std::int64_t stopped = 0;
      for (const trace::TraceEvent& e : rec.events()) {
        requested += e.kind == trace::EventKind::kStopRequested ? 1 : 0;
        stopped += e.kind == trace::EventKind::kTaskStopped ? 1 : 0;
      }
      EXPECT_EQ(requested, 6);
      EXPECT_EQ(stopped, 2);
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
