// Engine-reuse soak — one pooled engine reset()-cycled through ten
// thousand heterogeneous scenarios (tests/runtime/scenario_fuzz.hpp)
// must stay observationally identical to a fresh engine built per
// scenario. Each iteration draws its observation mode and cost
// representation from the seed, so the pooled engine constantly flips
// configuration across reuses — the pattern the admission service's
// worker pool and the sweep's ScenarioRunner both rely on.
//
// The comparison is as strong as the drawn observation mode allows:
// full trace equality under a Recorder, per-task counter equality under
// counting sinks, and TaskStats equality always.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/engine.hpp"
#include "scenario_fuzz.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"

namespace rtft::rt {
namespace {

using namespace rtft::literals;
using fuzz::Scenario;

constexpr std::uint64_t kScenarios = 10'000;

enum class Observation { kRecorder, kCounting, kNone };

/// Per-scenario configuration, drawn from the seed independently of the
/// scenario content (splitmix so neighbouring seeds land on different
/// mixes even though random_scenario consumes the raw seed).
struct Mix {
  Observation obs;
  bool flat_costs;
  bool quantized;
};

Mix mix_for(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  Mix mix;
  switch ((z >> 1) % 3) {
    case 0: mix.obs = Observation::kRecorder; break;
    case 1: mix.obs = Observation::kCounting; break;
    default: mix.obs = Observation::kNone; break;
  }
  mix.flat_costs = (z >> 3 & 1) != 0;
  mix.quantized = (z >> 4) % 5 == 0;  // ~20% tie-heavy quantized grids
  return mix;
}

/// Cost spec cycling through every CostKind: fuzz::jittered_cost
/// through a closure, a fixed deviation (negative ones big enough to
/// exercise the 1 ns floor) and the nominal cost.
CostSpec task_cost(const Scenario& s, std::size_t i) {
  const Duration nominal = s.tasks[i].cost;
  switch (i % 3) {
    case 0: {
      const std::uint64_t seed = s.cost_seeds[i];
      const std::int64_t quantum = fuzz::cost_quantum(s);
      return CostModel([nominal, seed, quantum](std::int64_t job) {
        return fuzz::jittered_cost(nominal, seed, job, quantum);
      });
    }
    case 1:
      return CostSpec::fixed_overrun(
          static_cast<std::int64_t>(i % 5),
          (i % 2 != 0) ? nominal / 2 : -(nominal * 2));
    default:
      return CostSpec::nominal();
  }
}

/// The same per-job costs, every one behind a closure.
CostSpec closure_cost(const Scenario& s, std::size_t i) {
  const CostSpec spec = task_cost(s, i);
  const Duration nominal = s.tasks[i].cost;
  return CostModel([spec, nominal](std::int64_t job) {
    return spec.resolve(nominal, job);
  });
}

struct RunResult {
  std::vector<fuzz::FlatEvent> events;        ///< kRecorder only.
  std::vector<trace::TaskCounters> counters;  ///< kCounting only.
  std::vector<std::int64_t> kind_totals;      ///< kCounting only.
  std::vector<TaskStats> stats;
  std::int64_t fires = 0;
};

EngineOptions scenario_options(const Scenario& s, const Mix& mix,
                               trace::Recorder* rec,
                               trace::CountingSink* counting) {
  EngineOptions opts;
  opts.horizon = Instant::epoch() + s.horizon;
  opts.stop_poll_latency = s.stop_poll_latency;
  opts.context_switch_cost = s.context_switch_cost;
  switch (mix.obs) {
    case Observation::kRecorder: opts.sink = rec; break;
    case Observation::kCounting: opts.sink = counting; break;
    case Observation::kNone: break;
  }
  return opts;
}

/// Applies `s` to an engine already carrying the scenario's options and
/// runs it to the horizon, collecting whatever the mix observes.
RunResult run_applied(Engine& engine, const Scenario& s, const Mix& mix,
                      trace::Recorder& rec, trace::CountingSink& counting) {
  RunResult result;
  fuzz::apply_scenario(
      engine, s,
      [&](std::size_t i) {
        return mix.flat_costs ? task_cost(s, i) : closure_cost(s, i);
      },
      result.fires);
  engine.run();
  if (mix.obs == Observation::kRecorder) {
    result.events = fuzz::flatten(rec);
  }
  if (mix.obs == Observation::kCounting) {
    for (std::size_t i = 0; i < engine.task_count(); ++i) {
      result.counters.push_back(counting.counters(i));
    }
    for (std::size_t k = 0; k < trace::kEventKindCount; ++k) {
      result.kind_totals.push_back(
          counting.total(static_cast<trace::EventKind>(k)));
    }
  }
  for (std::size_t i = 0; i < engine.task_count(); ++i) {
    result.stats.push_back(engine.stats(i));
  }
  return result;
}

void expect_equivalent(const RunResult& pooled, const RunResult& fresh,
                       std::uint64_t seed) {
  ASSERT_EQ(pooled.events, fresh.events) << "trace divergence at seed "
                                         << seed;
  ASSERT_EQ(pooled.fires, fresh.fires) << "seed " << seed;
  ASSERT_EQ(pooled.kind_totals, fresh.kind_totals) << "seed " << seed;
  ASSERT_EQ(pooled.counters.size(), fresh.counters.size()) << "seed " << seed;
  for (std::size_t i = 0; i < pooled.counters.size(); ++i) {
    const trace::TaskCounters& a = pooled.counters[i];
    const trace::TaskCounters& b = fresh.counters[i];
    ASSERT_EQ(a.released, b.released) << "seed " << seed << " task " << i;
    ASSERT_EQ(a.started, b.started) << "seed " << seed << " task " << i;
    ASSERT_EQ(a.completed, b.completed) << "seed " << seed << " task " << i;
    ASSERT_EQ(a.missed, b.missed) << "seed " << seed << " task " << i;
    ASSERT_EQ(a.aborted, b.aborted) << "seed " << seed << " task " << i;
    ASSERT_EQ(a.preemptions, b.preemptions) << "seed " << seed << " task "
                                            << i;
    ASSERT_EQ(a.stopped, b.stopped) << "seed " << seed << " task " << i;
    ASSERT_EQ(a.max_response, b.max_response) << "seed " << seed << " task "
                                              << i;
    ASSERT_EQ(a.last_response, b.last_response) << "seed " << seed << " task "
                                                << i;
  }
  ASSERT_EQ(pooled.stats.size(), fresh.stats.size()) << "seed " << seed;
  for (std::size_t i = 0; i < pooled.stats.size(); ++i) {
    const TaskStats& a = pooled.stats[i];
    const TaskStats& b = fresh.stats[i];
    ASSERT_EQ(a.released, b.released) << "seed " << seed << " task " << i;
    ASSERT_EQ(a.completed, b.completed) << "seed " << seed << " task " << i;
    ASSERT_EQ(a.missed, b.missed) << "seed " << seed << " task " << i;
    ASSERT_EQ(a.aborted, b.aborted) << "seed " << seed << " task " << i;
    ASSERT_EQ(a.stopped, b.stopped) << "seed " << seed << " task " << i;
    ASSERT_EQ(a.max_response, b.max_response) << "seed " << seed << " task "
                                              << i;
    ASSERT_EQ(a.last_response, b.last_response) << "seed " << seed << " task "
                                                << i;
  }
}

TEST(EngineReuseSoak, TenThousandMixedScenariosMatchFreshEngines) {
  EngineOptions bootstrap;
  bootstrap.horizon = Instant::epoch() + 1_ms;
  Engine pooled(bootstrap);

  // Every axis must actually flip during the soak, or the mix derivation
  // silently degenerated and the "heterogeneous" claim is hollow.
  std::uint64_t recorder = 0, counting_runs = 0, null_runs = 0;
  std::uint64_t flat = 0, quantized = 0;

  for (std::uint64_t seed = 1; seed <= kScenarios; ++seed) {
    const Mix mix = mix_for(seed);
    const Scenario s = fuzz::random_scenario(seed, mix.quantized);
    recorder += mix.obs == Observation::kRecorder ? 1 : 0;
    counting_runs += mix.obs == Observation::kCounting ? 1 : 0;
    null_runs += mix.obs == Observation::kNone ? 1 : 0;
    flat += mix.flat_costs ? 1 : 0;
    quantized += mix.quantized ? 1 : 0;

    trace::Recorder pooled_rec;
    trace::CountingSink pooled_counting;
    pooled.reset(scenario_options(s, mix, &pooled_rec, &pooled_counting));
    const RunResult reused =
        run_applied(pooled, s, mix, pooled_rec, pooled_counting);

    trace::Recorder fresh_rec;
    trace::CountingSink fresh_counting;
    Engine fresh(scenario_options(s, mix, &fresh_rec, &fresh_counting));
    const RunResult reference =
        run_applied(fresh, s, mix, fresh_rec, fresh_counting);

    expect_equivalent(reused, reference, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }

  EXPECT_GT(recorder, 0u);
  EXPECT_GT(counting_runs, 0u);
  EXPECT_GT(null_runs, 0u);
  EXPECT_GT(flat, 0u);
  EXPECT_LT(flat, kScenarios);
  EXPECT_GT(quantized, 0u);
  EXPECT_LT(quantized, kScenarios);
}

}  // namespace
}  // namespace rtft::rt
