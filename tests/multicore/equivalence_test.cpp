// M=1 equivalence oracle — a MultiEngine fleet with a single core must
// be bit-identical to a plain rt::Engine on randomized scenarios
// (tests/runtime/scenario_fuzz.hpp), whatever sync quantum the fleet is
// stepped in and however its run is segmented. The multicore layer must
// add exactly nothing to the uniprocessor semantics it composes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "../runtime/scenario_fuzz.hpp"
#include "multicore/multi_engine.hpp"
#include "runtime/engine.hpp"
#include "trace/recorder.hpp"

namespace rtft::multicore {
namespace {

using rt::fuzz::Scenario;
namespace fuzz = rt::fuzz;

struct RunResult {
  std::vector<fuzz::FlatEvent> events;
  std::vector<rt::TaskStats> stats;
};

rt::CostSpec scenario_cost(const Scenario& s, std::size_t i,
                           std::int64_t quantum) {
  const Duration nominal = s.tasks[i].cost;
  const std::uint64_t seed = s.cost_seeds[i];
  return rt::CostModel([nominal, seed, quantum](std::int64_t job) {
    return fuzz::jittered_cost(nominal, seed, job, quantum);
  });
}

rt::EngineOptions scenario_options(const Scenario& s, trace::Recorder& rec) {
  rt::EngineOptions opts;
  opts.horizon = Instant::epoch() + s.horizon;
  opts.stop_poll_latency = s.stop_poll_latency;
  opts.context_switch_cost = s.context_switch_cost;
  opts.sink = &rec;
  return opts;
}

RunResult collect(rt::Engine& engine, const trace::Recorder& rec,
                  std::int64_t fires) {
  RunResult result;
  result.events = fuzz::flatten(rec);
  result.events.emplace_back(fires, -1, 0, 0, 0);  // handler-visible state
  for (std::size_t i = 0; i < engine.task_count(); ++i) {
    result.stats.push_back(engine.stats(i));
  }
  return result;
}

/// The oracle: the plain engine run in one shot.
RunResult run_plain(rt::Engine& engine, const Scenario& s) {
  trace::Recorder rec;
  engine.reset(scenario_options(s, rec));
  std::int64_t fires = 0;
  const std::int64_t quantum = fuzz::cost_quantum(s);
  fuzz::apply_scenario(
      engine, s,
      [&](std::size_t i) { return scenario_cost(s, i, quantum); }, fires);
  engine.run();
  return collect(engine, rec, fires);
}

/// Advances `fleet` to `stop_at` in global lockstep ticks of `quantum`
/// (one segment when it is zero).
void step_to(MultiEngine& fleet, Instant stop_at, Duration quantum) {
  for (Instant t = fleet.now() + quantum;
       quantum.is_positive() && t < stop_at; t = t + quantum) {
    fleet.run_until(t);
  }
  fleet.run_until(stop_at);
}

/// The subject: a one-core fleet advanced through randomized run_until
/// segments to its horizon, each stepped in a randomized sync quantum —
/// the harshest segmentation the fleet API allows.
RunResult run_fleet(MultiEngine& fleet, const Scenario& s,
                    std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b9ULL);
  const Duration sync_quantum =
      (rng() % 2 != 0)
          ? Duration::us(static_cast<std::int64_t>(100 + rng() % 7000))
          : Duration::zero();
  trace::Recorder rec;
  fleet.reset(1, scenario_options(s, rec));
  rt::Engine& engine = fleet.core(0);
  std::int64_t fires = 0;
  const std::int64_t quantum = fuzz::cost_quantum(s);
  fuzz::apply_scenario(
      engine, s,
      [&](std::size_t i) { return scenario_cost(s, i, quantum); }, fires);
  std::vector<Instant> cuts;
  const std::size_t n_cuts = rng() % 4;
  for (std::size_t k = 0; k < n_cuts; ++k) {
    cuts.push_back(Instant::epoch() +
                   Duration::ns(static_cast<std::int64_t>(
                       rng() % static_cast<std::uint64_t>(s.horizon.count()))));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(fleet.horizon());
  for (const Instant cut : cuts) step_to(fleet, cut, sync_quantum);
  return collect(engine, rec, fires);
}

void expect_equivalent(const RunResult& a, const RunResult& b,
                       std::uint64_t seed) {
  ASSERT_EQ(a.events, b.events) << "trace divergence at seed " << seed;
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    ASSERT_EQ(a.stats[i].released, b.stats[i].released) << "seed " << seed;
    ASSERT_EQ(a.stats[i].completed, b.stats[i].completed) << "seed " << seed;
    ASSERT_EQ(a.stats[i].missed, b.stats[i].missed) << "seed " << seed;
    ASSERT_EQ(a.stats[i].aborted, b.stats[i].aborted) << "seed " << seed;
    ASSERT_EQ(a.stats[i].max_response, b.stats[i].max_response)
        << "seed " << seed;
  }
}

TEST(SingleCoreEquivalence, FleetMatchesPlainEngineOnRandomScenarios) {
  // Both subjects are reused across all scenarios, so the comparison
  // also covers fleet state surviving reset().
  rt::EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + Duration::ms(1);
  rt::Engine plain(bootstrap);
  MultiEngine fleet;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Scenario s = fuzz::random_scenario(seed, /*quantized=*/false);
    expect_equivalent(run_plain(plain, s), run_fleet(fleet, s, seed), seed);
  }
}

TEST(SingleCoreEquivalence, FleetMatchesPlainEngineOnQuantizedGrids) {
  // Tie-heavy grids: many events share one date, so any ordering slip
  // the fleet's lockstep stepping introduced would surface here.
  rt::EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + Duration::ms(1);
  rt::Engine plain(bootstrap);
  MultiEngine fleet;
  for (std::uint64_t seed = 1000; seed < 1030; ++seed) {
    const Scenario s = fuzz::random_scenario(seed, /*quantized=*/true);
    expect_equivalent(run_plain(plain, s), run_fleet(fleet, s, seed), seed);
  }
}

}  // namespace
}  // namespace rtft::multicore
