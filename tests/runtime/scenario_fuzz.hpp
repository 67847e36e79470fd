// Shared randomized-scenario generator for the engine suites: the
// golden corpus (tests/runtime/golden/), the reference-model
// differential test and the reuse soaks. One materialized Scenario
// applied to two engines — or to an engine and the reference simulator
// (reference_engine.hpp) — yields bit-identical inputs.
//
// Scenarios cross every engine-visible path: periodic / one-shot /
// cancelled timers, stop requests in both modes, injected overhead,
// context-switch charging, deadline misses on overloaded sets, and
// tie-heavy quantized grids where every duration snaps to a coarse
// quantum so many events share one date.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "runtime/engine.hpp"
#include "trace/recorder.hpp"

namespace rtft::rt::fuzz {

struct StopPlan {
  Duration when;
  TaskHandle task = 0;
  StopMode mode = StopMode::kTask;
  Duration extra_latency;
};

struct OverheadPlan {
  Duration when;
  Duration amount;
};

struct TimerPlan {
  Duration first;
  Duration period;        ///< zero: one-shot.
  Duration cancel_at;     ///< zero: never cancelled.
};

/// The corpus' injected fault: job `job` of task `task` costs nominal +
/// `extra`, floored at 1 ns (a negative `extra` may hit the floor).
struct OverrunPlan {
  std::size_t task = 0;
  std::int64_t job = 0;
  Duration extra;
};

/// One fully materialized random scenario.
struct Scenario {
  Duration horizon;
  Duration stop_poll_latency;
  Duration context_switch_cost;
  std::vector<sched::TaskParams> tasks;
  std::vector<std::uint64_t> cost_seeds;
  std::vector<StopPlan> stops;
  std::vector<OverheadPlan> overheads;
  std::vector<TimerPlan> timers;
  OverrunPlan overrun;
};

/// Deterministic per-job actual cost in [C/2+1ns, 2C]: underruns,
/// overruns and deadline misses without any shared-RNG ordering
/// dependence between runs. `quantum` snaps the jitter so tie-heavy
/// scenarios stay tie-heavy through the cost model.
inline Duration jittered_cost(Duration nominal, std::uint64_t seed,
                              std::int64_t job, std::int64_t quantum) {
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(job) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  const std::int64_t c = nominal.count();
  const std::int64_t lo = c / 2 + 1;
  const std::int64_t span = 2 * c - lo + 1;
  std::int64_t v =
      lo + static_cast<std::int64_t>(z % static_cast<std::uint64_t>(span));
  if (quantum > 1) v = std::max<std::int64_t>((v / quantum) * quantum, 1);
  return Duration::ns(v);
}

/// The cost-jitter quantum that keeps a tie-heavy scenario tie-heavy.
inline std::int64_t cost_quantum(const Scenario& s) {
  return s.context_switch_cost.is_zero() &&
                 s.stop_poll_latency % Duration::ms(1) == Duration::zero()
             ? 1'000'000
             : 1;
}

inline Scenario random_scenario(std::uint64_t seed, bool quantized) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  Scenario s;
  s.horizon = Duration::ms(pick(150, 400));
  s.stop_poll_latency =
      (rng() % 2 != 0) ? Duration::us(pick(0, 3000)) : Duration::zero();
  s.context_switch_cost =
      (rng() % 2 != 0) ? Duration::us(pick(1, 200)) : Duration::zero();
  if (quantized) {
    // Snap everything to a coarse grid: simultaneous releases,
    // completions, timer fires and deadline checks everywhere.
    s.stop_poll_latency = Duration::ms(pick(0, 2));
    s.context_switch_cost = Duration::zero();
  }
  const auto n = static_cast<std::size_t>(pick(1, 10));
  for (std::size_t i = 0; i < n; ++i) {
    sched::TaskParams p;
    p.name = "t" + std::to_string(i);
    p.priority = static_cast<int>(pick(1, 4));  // heavy priority ties
    p.period = quantized ? Duration::ms(pick(1, 12) * 5)
                         : Duration::ms(pick(5, 60));
    p.cost = quantized ? Duration::ms(pick(1, 4))
                       : Duration::us(pick(200, 4000));
    // Mostly constrained deadlines; sometimes tight ones that miss.
    p.deadline = (rng() % 4 == 0) ? p.cost * 2 : p.period;
    p.offset = quantized ? Duration::ms(pick(0, 4) * 5)
                         : Duration::ms(pick(0, 20));
    s.tasks.push_back(std::move(p));
    s.cost_seeds.push_back(rng());
  }
  const std::int64_t stops = pick(0, 3);
  for (std::int64_t k = 0; k < stops; ++k) {
    s.stops.push_back(StopPlan{
        Duration::ms(pick(10, 140)),
        static_cast<TaskHandle>(pick(0, static_cast<std::int64_t>(n) - 1)),
        (rng() % 2 != 0) ? StopMode::kTask : StopMode::kJob,
        quantized ? Duration::zero() : Duration::us(pick(0, 500))});
  }
  const std::int64_t overheads = pick(0, 3);
  for (std::int64_t k = 0; k < overheads; ++k) {
    s.overheads.push_back(
        OverheadPlan{Duration::ms(pick(5, 140)),
                     quantized ? Duration::ms(pick(1, 2))
                               : Duration::us(pick(10, 800))});
  }
  const std::int64_t timers = pick(0, 4);
  for (std::int64_t k = 0; k < timers; ++k) {
    TimerPlan t;
    t.first = Duration::ms(pick(0, 120));
    t.period = (rng() % 2 != 0) ? Duration::ms(pick(1, 25)) : Duration::zero();
    t.cancel_at =
        (rng() % 3 == 0) ? Duration::ms(pick(10, 130)) : Duration::zero();
    s.timers.push_back(t);
  }
  // Drawn last, so every earlier draw matches the pre-overrun generator.
  s.overrun.task = static_cast<std::size_t>(
      pick(0, static_cast<std::int64_t>(n) - 1));
  s.overrun.job = pick(0, 4);
  const Duration nominal = s.tasks[s.overrun.task].cost;
  s.overrun.extra = (rng() % 3 == 0) ? -(nominal * 2) : nominal * pick(1, 3);
  return s;
}

/// Task `i`'s actual costs in the corpus: the overrun task runs the
/// injected fault, in the flat CostSpec form or as an equivalent closure;
/// every other task runs jittered_cost through a closure.
inline CostSpec corpus_cost(const Scenario& s, std::size_t i, bool flat) {
  const Duration nominal = s.tasks[i].cost;
  if (i == s.overrun.task) {
    const OverrunPlan o = s.overrun;
    if (flat) return CostSpec::fixed_overrun(o.job, o.extra);
    return CostModel([nominal, o](std::int64_t job) {
      if (job != o.job) return nominal;
      return std::max(nominal + o.extra, Duration::ns(1));
    });
  }
  const std::uint64_t seed = s.cost_seeds[i];
  const std::int64_t quantum = cost_quantum(s);
  return CostModel([nominal, seed, quantum](std::int64_t job) {
    return jittered_cost(nominal, seed, job, quantum);
  });
}

/// Registers the scenario's tasks, stops, overheads and timers on an
/// already-reset engine (an rt::Engine or a ref::ReferenceEngine).
/// `cost_for(i)` supplies task i's cost spec; `fires` counts
/// timer-handler invocations and must outlive the run.
template <typename E>
void apply_scenario(E& engine, const Scenario& s,
                    const std::function<CostSpec(std::size_t)>& cost_for,
                    std::int64_t& fires) {
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    engine.add_task(s.tasks[i], cost_for(i));
  }
  for (const StopPlan& p : s.stops) {
    engine.add_one_shot_timer(Instant::epoch() + p.when, [p](E& e) {
      e.request_stop(p.task, p.mode, p.extra_latency);
    });
  }
  for (const OverheadPlan& p : s.overheads) {
    engine.add_one_shot_timer(Instant::epoch() + p.when, [p](E& e) {
      e.inject_overhead(p.amount);
    });
  }
  std::vector<TimerHandle> handles;
  for (const TimerPlan& p : s.timers) {
    const Instant first = Instant::epoch() + p.first;
    if (p.period.is_positive()) {
      handles.push_back(engine.add_periodic_timer(
          first, p.period, [&fires](E&) { ++fires; }));
    } else {
      handles.push_back(
          engine.add_one_shot_timer(first, [&fires](E&) { ++fires; }));
    }
  }
  for (std::size_t i = 0; i < s.timers.size(); ++i) {
    if (s.timers[i].cancel_at.is_positive()) {
      const TimerHandle victim = handles[i];
      engine.add_one_shot_timer(Instant::epoch() + s.timers[i].cancel_at,
                                [victim](E& e) {
                                  e.cancel_timer(victim);
                                });
    }
  }
}

using FlatEvent =
    std::tuple<std::int64_t, int, std::uint32_t, std::int64_t, std::int64_t>;

inline std::vector<FlatEvent> flatten(const trace::Recorder& rec) {
  std::vector<FlatEvent> out;
  out.reserve(rec.size());
  for (const auto& e : rec.events()) {
    out.emplace_back(e.time.count(), static_cast<int>(e.kind), e.task, e.job,
                     e.detail);
  }
  return out;
}

/// FNV-1a 64 over a sequence of integers — the corpus' hash.
class Fnv {
 public:
  void add(std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b, u >>= 8) {
      h_ = (h_ ^ (u & 0xff)) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Hash of a full trace plus the handler-visible timer-fire count.
inline std::uint64_t trace_hash(const trace::Recorder& rec,
                                std::int64_t fires) {
  Fnv h;
  for (const trace::TraceEvent& e : rec.events()) {
    h.add(e.time.count());
    h.add(static_cast<std::int64_t>(e.kind));
    h.add(e.task);
    h.add(e.job);
    h.add(e.detail);
  }
  h.add(fires);
  return h.value();
}

/// Hash of every TaskStats field of every task.
template <typename E>
std::uint64_t stats_hash(const E& engine) {
  Fnv h;
  for (std::size_t i = 0; i < engine.task_count(); ++i) {
    const TaskStats& st = engine.stats(i);
    h.add(st.released);
    h.add(st.completed);
    h.add(st.missed);
    h.add(st.aborted);
    h.add(st.stopped ? 1 : 0);
    h.add(st.max_response.count());
    h.add(st.last_response.count());
  }
  return h.value();
}

/// Hash of a CountingSink's per-task counters (tasks [0, tasks)) and
/// per-kind totals.
inline std::uint64_t counters_hash(const trace::CountingSink& sink,
                                   std::size_t tasks) {
  Fnv h;
  for (std::size_t i = 0; i < tasks; ++i) {
    const trace::TaskCounters& c = sink.counters(i);
    for (const std::int64_t v :
         {c.released, c.started, c.completed, c.missed, c.aborted,
          c.preemptions, c.detector_fires, c.faults_detected}) {
      h.add(v);
    }
    h.add(c.stopped ? 1 : 0);
    h.add(c.max_response.count());
    h.add(c.last_response.count());
  }
  for (std::size_t k = 0; k < trace::kEventKindCount; ++k) {
    h.add(sink.total(static_cast<trace::EventKind>(k)));
  }
  return h.value();
}

/// The task set a scenario runs, for trace::validate_trace.
inline sched::TaskSet task_set(const Scenario& s) {
  sched::TaskSet ts;
  for (const sched::TaskParams& p : s.tasks) ts.add(p);
  return ts;
}

}  // namespace rtft::rt::fuzz
