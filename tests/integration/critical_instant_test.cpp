// The critical-instant oracle: the RTA kernel and the engine, checked
// against each other exactly.
//
// From a synchronous release, with no overheads, Lehoczky's busy-period
// recurrence computes exactly the job completions a fixed-priority
// processor produces (the paper's §2 rests on this critical-instant
// theorem). So the engine, run from that release, must reproduce
// sched::busy_period():
//
//   * a task whose analysis is bounded shows its WCRT as its worst
//     response once its level-i busy period has ended, whether or not it
//     meets its deadline; for a feasible set every level ends by L, the
//     lowest position's last completion (the end of the level-n busy
//     period);
//   * a certain miss that the deadline cap dates (job q of task i) is in
//     the engine by q·Ti + Di, and it is that task's only miss so far;
//   * within a priority tie the analysis lets tied tasks interfere both
//     ways and the engine serves them FIFO, so there engine <= analysis.
//
// The admission service's exact tier runs this very replay (to L, or to
// the dated miss) on each cache miss; this file is its proof, over the
// sweep generator's population, over commensurate periods (where an
// iterate lands on a release date and an off-by-one ceiling shows), and
// over the paper's systems. A set the kernel dates nothing is answered
// without a replay, and one test sends such sets to the service. It
// also checks the allowance searches' tightness at the critical instant
// and the single-task overrun probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "runtime/engine.hpp"
#include "sched/allowance.hpp"
#include "sched/feasibility.hpp"
#include "sched/response_time.hpp"
#include "serve/service.hpp"
#include "support/paper_systems.hpp"
#include "support/task_set_copies.hpp"
#include "sweep/generators.hpp"

namespace rtft {
namespace {

using sched::Inflation;
using sched::PriorityView;
using sched::RtaResult;
using sched::RtaStop;
using sched::TaskId;
using sched::TaskParams;
using sched::TaskSet;
using namespace rtft::literals;

/// Guard rails for the uncapped analyses: a level whose busy period runs
/// longer is left unchecked rather than slowing the suite.
sched::RtaOptions uncapped_rails() {
  sched::RtaOptions opts;
  opts.max_jobs = 1 << 12;
  opts.max_iterations = 1 << 18;
  return opts;
}

/// Past this many released jobs a replay is skipped, as the service
/// skips an oversize cross-check.
constexpr std::int64_t kMaxReplayJobs = 200'000;

/// True when the task at `pos` shares its priority with another.
bool tied(const PriorityView& view, std::size_t pos) {
  return view.interferer_end(pos) != pos + 1 ||
         (pos > 0 && view.interferer_end(pos - 1) != pos);
}

/// The capped kernel at each position, lowest priority first, up to the
/// first that is not bounded: the admission service's analysis loop.
struct CappedLoop {
  std::vector<RtaResult> rta;  ///< by view position.
  std::size_t low = 0;         ///< the last position analyzed.
  bool feasible = true;
};

CappedLoop capped_loop(const PriorityView& view) {
  CappedLoop out;
  out.rta.resize(view.size());
  out.low = view.size();
  while (out.feasible && out.low > 0) {
    --out.low;
    out.rta[out.low] = sched::busy_period(view, out.low, {}, {}, true);
    out.feasible = out.rta[out.low].bounded;
  }
  return out;
}

/// The replay end the kernel dates: L for a feasible set, the deadline
/// q·T + D of a certain miss otherwise, nothing after an overload or a
/// guard rail.
std::optional<Duration> replay_end(const TaskSet& ts, const PriorityView& view,
                                   const CappedLoop& a) {
  if (a.feasible) return a.rta.back().last_completion;
  const RtaResult& r = a.rta[a.low];
  if (r.stop != RtaStop::kMiss) return std::nullopt;
  const TaskParams& t = ts[view.id(a.low)];
  return t.period * r.jobs_examined + t.deadline;
}

std::int64_t jobs_released_by(const TaskSet& ts, Duration end) {
  std::int64_t jobs = 0;
  for (const TaskParams& t : ts) jobs += end.count() / t.period.count() + 1;
  return jobs;
}

/// Arms `engine` with `ts` released synchronously (offsets zeroed) and a
/// horizon at `end`; `costs`, when given, holds each task's CostSpec.
void arm(rt::Engine& engine, const TaskSet& ts, Duration end,
         const std::vector<rt::CostSpec>& costs = {}) {
  rt::EngineOptions opts;
  opts.horizon = Instant::epoch() + end;
  engine.reset(opts);
  for (TaskId i = 0; i < ts.size(); ++i) {
    TaskParams t = ts[i];
    t.offset = Duration::zero();
    (void)engine.add_task(t, costs.empty() ? rt::CostSpec{} : costs[i]);
  }
}

/// What a population exercised, so each test can show it reached the
/// cases it claims to cover.
struct Coverage {
  std::size_t sets = 0;
  std::size_t feasible = 0;
  std::size_t multi_job = 0;     ///< feasible, level-n busy period > 1 job.
  std::size_t exact_tasks = 0;   ///< tasks checked for equality.
  std::size_t tied_tasks = 0;    ///< tasks checked one-sided.
  std::size_t dated_misses = 0;
  std::size_t later_misses = 0;  ///< dated at a job q > 0.
  std::size_t undated = 0;
  std::size_t infeasible_exact = 0;  ///< bounded levels of infeasible sets.
};

/// The service's replay and comparison, then every bounded level of the
/// uncapped analysis in one longer run of the same engine. Returns
/// whether the set was replayed; an oversize set is skipped.
bool check_critical_instant(const TaskSet& ts, rt::Engine& engine,
                            Coverage& cov) {
  const PriorityView view(ts);
  const std::size_t n = view.size();
  const CappedLoop a = capped_loop(view);
  const std::optional<Duration> dated_end = replay_end(ts, view, a);
  Duration max_period;
  for (const TaskParams& t : ts) max_period = std::max(max_period, t.period);
  // Without a date the service does not replay; this check still runs
  // 8 max periods, for the bounded levels below.
  const Duration end = dated_end.value_or(max_period * 8);

  // Every level the uncapped analysis bounds, and the latest of their
  // ends: past E only on an infeasible set.
  std::vector<RtaResult> full(n);
  Duration last_end = end;
  if (!a.feasible) {
    for (std::size_t p = 0; p < n; ++p) {
      full[p] = sched::busy_period(view, p, uncapped_rails());
      if (full[p].bounded) {
        last_end = std::max(last_end, full[p].last_completion);
      }
    }
    if (jobs_released_by(ts, last_end) > kMaxReplayJobs) last_end = end;
  }
  if (jobs_released_by(ts, end) > kMaxReplayJobs) return false;
  ++cov.sets;

  arm(engine, ts, last_end);
  engine.run_until(Instant::epoch() + end);
  if (a.feasible) {
    ++cov.feasible;
    cov.multi_job += a.rta.back().jobs_examined > 1 ? 1 : 0;
    for (std::size_t p = 0; p < n; ++p) {
      SCOPED_TRACE("position " + std::to_string(p));
      const rt::TaskStats& s = engine.stats(view.id(p));
      EXPECT_EQ(s.missed, 0);
      if (tied(view, p)) {
        ++cov.tied_tasks;
        EXPECT_LE(s.max_response, a.rta[p].wcrt);
      } else {
        ++cov.exact_tasks;
        EXPECT_EQ(s.max_response, a.rta[p].wcrt);
      }
    }
    return true;
  }
  if (dated_end) {
    ++cov.dated_misses;
    cov.later_misses += a.rta[a.low].jobs_examined > 0 ? 1 : 0;
    const std::int64_t missed = engine.stats(view.id(a.low)).missed;
    if (tied(view, a.low)) {
      EXPECT_LE(missed, 1);
    } else {
      EXPECT_EQ(missed, 1) << "the miss dated at " << to_string(end);
    }
  } else {
    // A level load above 1 shows its first miss eventually, not always
    // within the window: nothing is compared at E.
    ++cov.undated;
  }
  // Infeasible, yet each bounded level is exact once its busy period
  // has ended in the replay.
  engine.run();
  for (std::size_t p = 0; p < n; ++p) {
    if (!full[p].bounded) continue;
    SCOPED_TRACE("uncapped position " + std::to_string(p));
    const rt::TaskStats& s = engine.stats(view.id(p));
    if (tied(view, p) || full[p].last_completion > last_end) {
      EXPECT_LE(s.max_response, full[p].wcrt);
    } else {
      ++cov.infeasible_exact;
      EXPECT_EQ(s.max_response, full[p].wcrt);
    }
  }
  return true;
}

/// The sweep generator's population: 3-28 tasks, U 0.5-1.2, deadlines
/// 0.8-1 × T or up to 2 or 3 × T.
TaskSet sweep_draw(std::uint64_t seed) {
  Rng rng(seed);
  RandomTaskSetSpec spec;
  spec.tasks = static_cast<std::size_t>(rng.next_in(3, 28));
  spec.total_utilization = 0.5 + 0.7 * rng.next_double();
  spec.deadline_max_factor = static_cast<double>(1 + seed % 3);
  return sweep::make_random_task_set(rng, spec);
}

/// A sweep draw with every period, cost and deadline rounded to whole
/// milliseconds, its periods first snapped down to a harmonic chain
/// 10 · 2^k ms when `harmonic` (deadlines keep their factor): iterates
/// then often land on release dates.
TaskSet commensurate_draw(std::uint64_t seed, bool harmonic) {
  Rng rng(seed);
  RandomTaskSetSpec spec;
  spec.tasks = static_cast<std::size_t>(rng.next_in(2, 10));
  spec.total_utilization = 0.4 + 0.6 * rng.next_double();
  spec.max_period = Duration::ms(320);
  spec.deadline_max_factor = static_cast<double>(1 + seed % 3);
  const TaskSet drawn = sweep::make_random_task_set(rng, spec);
  const auto whole_ms = [](Duration d) {
    return Duration::ms(std::max<std::int64_t>(1, (d.count() + 500'000) /
                                                      1'000'000));
  };
  TaskSet out;
  for (TaskParams t : drawn) {
    if (harmonic) {
      Duration p = 10_ms;
      while (p * 2 <= t.period) p = p * 2;
      const double factor = static_cast<double>(t.deadline.count()) /
                            static_cast<double>(t.period.count());
      t.deadline = Duration::ns(
          static_cast<std::int64_t>(factor * static_cast<double>(p.count())));
      t.period = p;
    }
    t.period = whole_ms(t.period);
    t.cost = whole_ms(t.cost);
    t.deadline = std::max(whole_ms(t.deadline), t.cost);
    out.add(std::move(t));
  }
  return out;
}

/// Runs of `width` neighbouring priorities folded onto one value.
TaskSet with_ties(const TaskSet& ts, int width) {
  TaskSet out;
  for (TaskParams t : ts) {
    t.priority /= width;
    out.add(std::move(t));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exact replay.
// ---------------------------------------------------------------------------

TEST(CriticalInstant, SweepPopulationReplaysExactly) {
  rt::Engine engine;
  Coverage cov;
  for (std::uint64_t seed = 0; seed < 6000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    (void)check_critical_instant(sweep_draw(seed), engine, cov);
  }
  EXPECT_GT(cov.sets, 5900u);
  EXPECT_GT(cov.feasible, 3500u);
  EXPECT_GT(cov.multi_job, 200u);
  EXPECT_GT(cov.exact_tasks, 50'000u);
  EXPECT_GT(cov.dated_misses, 800u);
  EXPECT_GT(cov.undated, 800u);
  EXPECT_GT(cov.infeasible_exact, 20'000u);
}

TEST(CriticalInstant, TheServiceAnswersUndatedSetsFromTheAnalysis) {
  // Sweep draws with D > T at U 1.005-1.095: a level load above 1, so
  // the capped kernel dates nothing, and no miss comes within 8 max
  // periods, so a clean replay there would contradict nothing. Each
  // goes to a fresh service, which answers from the analysis alone.
  for (const std::uint64_t seed : {2u, 641u, 1061u, 1114u, 1322u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TaskSet ts = sweep_draw(seed);
    const PriorityView view(ts);
    const CappedLoop a = capped_loop(view);
    ASSERT_FALSE(a.feasible);
    ASSERT_EQ(a.rta[a.low].stop, RtaStop::kOverload);
    serve::ServiceOptions opts;
    opts.workers = 1;
    serve::AdmissionService service{opts};
    serve::AdmissionRequest req;
    req.id = seed;
    req.tasks = ts.tasks();
    const serve::AdmissionResponse resp = service.admit(std::move(req));
    EXPECT_EQ(resp.status, serve::ResponseStatus::kAnswered);
    EXPECT_EQ(resp.verdict, serve::AdmissionVerdict::kReject);
    EXPECT_EQ(resp.tier, serve::AnalysisTier::kRtaOnly);
    EXPECT_FALSE(resp.cross_checked);
    const serve::ServiceMetrics m = service.metrics();
    EXPECT_EQ(m.cross_check_disagreements, 0u);
    EXPECT_EQ(m.cross_check_skips, 1u);
  }
}

TEST(CriticalInstant, CommensuratePeriodsReplayExactly) {
  rt::Engine engine;
  Coverage cov;
  for (const bool harmonic : {false, true}) {
    for (std::uint64_t seed = 0; seed < 3000; ++seed) {
      SCOPED_TRACE((harmonic ? "harmonic seed " : "seed ") +
                   std::to_string(seed));
      (void)check_critical_instant(commensurate_draw(seed, harmonic), engine,
                                   cov);
    }
  }
  // The paper's systems: Table 1's τ2 misses at job 0 and its uncapped
  // busy period spans three jobs; Table 2 is feasible. Then a miss the
  // cap dates at job 1: "lo" completes at 7 ms, then past 6 + 7 ms.
  TaskSet later_miss;
  later_miss.add(TaskParams{"hi", 2, 3_ms, 10_ms, 10_ms, Duration::zero()});
  later_miss.add(TaskParams{"lo", 1, 4_ms, 6_ms, 7_ms, Duration::zero()});
  for (const TaskSet& ts : {testsupport::table1_system(),
                            testsupport::table2_system(), later_miss}) {
    EXPECT_TRUE(check_critical_instant(ts, engine, cov));
  }
  EXPECT_EQ(cov.sets, 6003u);
  EXPECT_GT(cov.feasible, 3500u);
  EXPECT_GT(cov.multi_job, 120u);
  EXPECT_GT(cov.dated_misses, 700u);
  EXPECT_GT(cov.later_misses, 1u);
  EXPECT_GT(cov.infeasible_exact, 6'500u);
}

TEST(CriticalInstant, EqualPrioritiesNeverRunLate) {
  rt::Engine engine;
  Coverage cov;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TaskSet drawn = seed % 2 == 0 ? sweep_draw(seed)
                                        : commensurate_draw(seed, seed % 4 == 1);
    (void)check_critical_instant(with_ties(drawn, 2 + seed % 3), engine, cov);
  }
  EXPECT_GT(cov.feasible, 700u);
  EXPECT_GT(cov.tied_tasks, 8000u);
  EXPECT_GT(cov.dated_misses, 500u);
}

// ---------------------------------------------------------------------------
// The allowances are tight in execution.
// ---------------------------------------------------------------------------

/// Worst responses of a replay to L, which must exist: `ts` is feasible.
std::vector<Duration> replayed_responses(const TaskSet& ts,
                                         rt::Engine& engine) {
  const PriorityView view(ts);
  const CappedLoop a = capped_loop(view);
  EXPECT_TRUE(a.feasible);
  arm(engine, ts, a.rta.back().last_completion);
  engine.run();
  std::vector<Duration> out;
  for (TaskId i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(engine.stats(i).missed, 0);
    out.push_back(engine.stats(i).max_response);
  }
  return out;
}

/// The misses a replay of an infeasible `ts` records for the task whose
/// miss the kernel dates, by that date; nullopt when the kernel gives no
/// date (a level load above 1).
std::optional<std::int64_t> dated_misses(const TaskSet& ts,
                                         rt::Engine& engine) {
  const PriorityView view(ts);
  const CappedLoop a = capped_loop(view);
  EXPECT_FALSE(a.feasible);
  const std::optional<Duration> end = replay_end(ts, view, a);
  if (a.feasible || !end) return std::nullopt;
  arm(engine, ts, *end);
  engine.run();
  return engine.stats(view.id(a.low)).missed;
}

TEST(CriticalInstant, AllowancesAreTightInExecution) {
  // Raising every cost by the equitable allowance A runs clean, with the
  // inflated WCRTs (the §4.2 stop thresholds) as the worst responses,
  // and A + g misses where the kernel dates it. The same holds for the
  // §4.3 system allowance B on the beneficiary's cost, whose sound
  // thresholds are the worst responses. (Every draw here has distinct
  // priorities.)
  rt::Engine engine;
  sched::AllowanceOptions opts;
  opts.granularity = 100_us;
  const Duration g = opts.granularity;
  std::size_t feasible = 0, dated = 0, undated = 0;
  const auto past = [&](const TaskSet& ts) {
    const std::optional<std::int64_t> missed = dated_misses(ts, engine);
    if (!missed) {
      ++undated;
      return;
    }
    ++dated;
    EXPECT_EQ(*missed, 1);
  };
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TaskSet ts =
        seed % 2 == 0 ? sweep_draw(seed) : commensurate_draw(seed, false);
    const sched::EquitableAllowance ea = sched::equitable_allowance(ts, opts);
    if (!ea.feasible_at_zero) continue;
    ++feasible;
    using testsupport::with_all_costs_inflated;
    EXPECT_EQ(replayed_responses(with_all_costs_inflated(ts, ea.allowance),
                                 engine),
              ea.inflated_wcrt);
    past(with_all_costs_inflated(ts, ea.allowance + g));

    const sched::SystemAllowance sa = sched::system_allowance(ts, opts);
    const TaskId b = sa.beneficiary;
    using testsupport::with_cost;
    EXPECT_EQ(replayed_responses(with_cost(ts, b, ts[b].cost + sa.budget),
                                 engine),
              sa.sound_stop_thresholds);
    past(with_cost(ts, b, ts[b].cost + sa.budget + g));
  }
  // A + g often lifts a D > T set's load above 1, which has no date.
  EXPECT_GT(feasible, 700u);
  EXPECT_GT(dated, 800u);
  EXPECT_GT(undated, 0u);
}

// ---------------------------------------------------------------------------
// The single-task probe.
// ---------------------------------------------------------------------------

TEST(CriticalInstant, SingleTaskProbeMatchesAJobZeroOverrun) {
  // Inflation{pos, one} raises every job of one task; an engine run
  // where only its job 0 overruns by `one` must complete that job at
  // the probe's job-0 fixed point. When the probe finds the set
  // feasible, the run is clean up to the probe's L, and no response
  // exceeds the probe's WCRT.
  rt::Engine engine;
  std::size_t exact = 0, feasible = 0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TaskSet ts =
        seed % 2 == 0 ? sweep_draw(seed) : commensurate_draw(seed, seed % 4 == 1);
    const PriorityView view(ts);
    if (!sched::is_feasible(view)) continue;
    Rng rng(seed ^ 0x5eed);
    const auto pos = static_cast<std::size_t>(
        rng.next_in(0, static_cast<std::int64_t>(view.size()) - 1));
    const TaskId id = view.id(pos);
    const Duration slack = view.deadline(pos) - view.cost(pos);
    const Duration one = Duration::ns(
        rng.next_in(0, std::max<std::int64_t>(0, slack.count()) + 1'000'000));
    const Inflation probe{.pos = pos, .one = one};
    std::vector<rt::CostSpec> costs(ts.size());
    costs[id] = rt::CostSpec::fixed_overrun(0, one);

    const std::optional<Duration> r0 =
        sched::classic_response_time(view, pos, {}, probe);
    if (!r0 || jobs_released_by(ts, *r0) > kMaxReplayJobs) continue;
    arm(engine, ts, *r0, costs);
    engine.run();
    const rt::TaskStats& s = engine.stats(id);
    EXPECT_TRUE(engine.job_completed(id, 0));
    if (tied(view, pos)) {
      EXPECT_LE(s.max_response, *r0);
    } else {
      ++exact;
      EXPECT_EQ(s.completed, 1);
      EXPECT_EQ(s.max_response, *r0);
    }

    if (!sched::is_feasible(view, {}, probe)) continue;
    ++feasible;
    const RtaResult lowest =
        sched::busy_period(view, view.size() - 1, {}, probe, true);
    ASSERT_TRUE(lowest.bounded);
    arm(engine, ts, lowest.last_completion, costs);
    engine.run();
    for (std::size_t p = 0; p < view.size(); ++p) {
      const rt::TaskStats& sp = engine.stats(view.id(p));
      EXPECT_EQ(sp.missed, 0);
      EXPECT_LE(sp.max_response,
                sched::busy_period(view, p, {}, probe, true).wcrt);
    }
  }
  EXPECT_GT(exact, 500u);
  EXPECT_GT(feasible, 200u);
}

}  // namespace
}  // namespace rtft
