// The flat RTA kernel against the code it replaced.
//
// busy_period() over a PriorityView (cost inflation instead of TaskSet
// copies, a deadline cap in every feasibility probe, and the level-load
// test deferred to the first iterate past (q+1)·T) must reproduce the
// textbook implementation bit for bit. That implementation is kept below
// as the reference: per-call interferer lists, the 128-bit load test in
// front of every analysis, allowance searches (blocking-aware included)
// that probe inflated TaskSet copies through std::function, and
// placements that build one TaskSet per probed core load.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/math.hpp"
#include "common/random.hpp"
#include "core/treatment.hpp"
#include "multicore/partition.hpp"
#include "sched/allowance.hpp"
#include "sched/blocking.hpp"
#include "sched/feasibility.hpp"
#include "sched/response_time.hpp"
#include "sched/utilization.hpp"
#include "support/fault_oracle.hpp"
#include "support/task_set_copies.hpp"
#include "sweep/generators.hpp"
#include "sweep/sweep.hpp"

namespace rtft::sched {
namespace {

using namespace rtft::literals;
using testsupport::with_all_costs_inflated;
using testsupport::with_cost;

// ---------------------------------------------------------------------------
// The reference: the analyses as they were before the kernel.
// ---------------------------------------------------------------------------
namespace ref {

std::vector<TaskId> interferers_of(const TaskSet& ts, TaskId id) {
  std::vector<TaskId> out;
  for (TaskId j = 0; j < ts.size(); ++j) {
    if (j != id && ts[j].priority >= ts[id].priority) out.push_back(j);
  }
  std::stable_sort(out.begin(), out.end(), [&](TaskId a, TaskId b) {
    return ts[a].priority > ts[b].priority;
  });
  return out;
}

bool interfering_load_exceeds_one(const TaskSet& ts, TaskId id,
                                  const std::vector<TaskId>& hp) {
  std::vector<Duration> costs{ts[id].cost};
  std::vector<Duration> periods{ts[id].period};
  for (const TaskId j : hp) {
    costs.push_back(ts[j].cost);
    periods.push_back(ts[j].period);
  }
  return compare_load_to_one(costs, periods) > 0;
}

std::optional<Duration> fixed_point(const TaskSet& ts,
                                    const std::vector<TaskId>& hp,
                                    Duration base, Duration seed,
                                    std::int64_t& iteration_budget) {
  Duration r = seed;
  while (iteration_budget-- > 0) {
    Duration next = base;
    for (const TaskId j : hp) {
      const std::int64_t releases = ceil_div(r, ts[j].period);
      const auto add = checked_mul(releases, ts[j].cost.count());
      if (!add) return std::nullopt;
      const auto sum = checked_add(next.count(), *add);
      if (!sum) return std::nullopt;
      next = Duration::ns(*sum);
    }
    if (next == r) return r;
    r = next;
  }
  return std::nullopt;
}

RtaResult response_time(const TaskSet& ts, TaskId id,
                        const RtaOptions& opts = {}) {
  const TaskParams& task = ts[id];
  const std::vector<TaskId> hp = ref::interferers_of(ts, id);
  RtaResult result;
  if (ref::interfering_load_exceeds_one(ts, id, hp)) return result;
  std::int64_t iteration_budget = opts.max_iterations;
  Duration previous_completion = Duration::zero();
  for (std::int64_t q = 0; q < opts.max_jobs; ++q) {
    const auto base_ns = checked_mul(q + 1, task.cost.count());
    if (!base_ns) return result;
    const Duration base = Duration::ns(*base_ns);
    const Duration seed =
        previous_completion > base ? previous_completion : base;
    const auto completion =
        ref::fixed_point(ts, hp, base, seed, iteration_budget);
    if (!completion) return result;
    previous_completion = *completion;
    const Duration response = *completion - task.period * q;
    result.jobs_examined = q + 1;
    if (opts.record_jobs && result.jobs.size() < opts.max_recorded_jobs) {
      result.jobs.push_back(JobResponse{q, *completion, response});
    }
    if (q == 0 || response > result.wcrt) {
      result.wcrt = response;
      result.worst_job = q;
    }
    if (*completion <= task.period * (q + 1)) {
      result.bounded = true;
      return result;
    }
  }
  return result;
}

std::optional<Duration> classic_response_time(const TaskSet& ts, TaskId id,
                                              const RtaOptions& opts = {}) {
  const std::vector<TaskId> hp = ref::interferers_of(ts, id);
  if (ref::interfering_load_exceeds_one(ts, id, hp)) return std::nullopt;
  std::int64_t budget = opts.max_iterations;
  return ref::fixed_point(ts, hp, ts[id].cost, ts[id].cost, budget);
}

FeasibilityReport analyze(const TaskSet& ts, const RtaOptions& opts = {}) {
  FeasibilityReport report;
  report.load = load_test(ts);
  report.utilization = ts.utilization();
  bool all_ok = true;
  for (TaskId i = 0; i < ts.size(); ++i) {
    TaskVerdict v;
    v.id = i;
    const RtaResult rta = ref::response_time(ts, i, opts);
    v.bounded = rta.bounded;
    v.wcrt = rta.wcrt;
    v.meets_deadline = rta.bounded && rta.wcrt <= ts[i].deadline;
    all_ok = all_ok && v.meets_deadline;
    report.tasks.push_back(v);
  }
  report.feasible = all_ok && report.load != LoadVerdict::kAboveOne;
  return report;
}

bool is_feasible(const TaskSet& ts, const RtaOptions& opts = {}) {
  return ref::analyze(ts, opts).feasible;
}

Duration monotone_search(Duration granularity, Duration hi_bound,
                         const std::function<bool(Duration)>& feasible) {
  std::int64_t lo = 0;
  std::int64_t hi = ceil_div(hi_bound, granularity);
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (feasible(granularity * mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return granularity * lo;
}

Duration slack_bound(Duration slack) {
  return (slack.is_negative() ? Duration::zero() : slack) + 1_ns;
}

EquitableAllowance equitable_allowance(const TaskSet& ts,
                                       const AllowanceOptions& opts) {
  EquitableAllowance out;
  if (!ref::is_feasible(ts, opts.rta)) return out;
  out.feasible_at_zero = true;
  Duration bound = Duration::max();
  for (const TaskParams& t : ts) bound = std::min(bound, t.deadline - t.cost);
  const Duration hi = slack_bound(bound);
  out.allowance = ref::monotone_search(opts.granularity, hi, [&](Duration a) {
    return ref::is_feasible(with_all_costs_inflated(ts, a), opts.rta);
  });
  const TaskSet inflated = with_all_costs_inflated(ts, out.allowance);
  for (TaskId i = 0; i < ts.size(); ++i) {
    out.inflated_wcrt.push_back(
        ref::response_time(inflated, i, opts.rta).wcrt);
  }
  return out;
}

Duration max_single_task_overrun(const TaskSet& ts, TaskId id,
                                 const AllowanceOptions& opts) {
  if (!ref::is_feasible(ts, opts.rta)) return Duration::zero();
  const Duration hi = slack_bound(ts[id].deadline - ts[id].cost);
  return ref::monotone_search(opts.granularity, hi, [&](Duration extra) {
    return ref::is_feasible(with_cost(ts, id, ts[id].cost + extra), opts.rta);
  });
}

SystemAllowance system_allowance(const TaskSet& ts,
                                 const AllowanceOptions& opts) {
  SystemAllowance out;
  if (!ref::is_feasible(ts, opts.rta)) return out;
  out.feasible_at_zero = true;
  out.beneficiary = ts.by_priority_desc().front();
  out.budget = ref::max_single_task_overrun(ts, out.beneficiary, opts);
  const TaskSet worst_case =
      with_cost(ts, out.beneficiary, ts[out.beneficiary].cost + out.budget);
  for (TaskId i = 0; i < ts.size(); ++i) {
    const RtaResult rta = ref::response_time(ts, i, opts.rta);
    out.nominal_wcrt.push_back(rta.wcrt);
    out.stop_thresholds.push_back(rta.wcrt + out.budget);
    out.sound_stop_thresholds.push_back(
        ref::response_time(worst_case, i, opts.rta).wcrt);
  }
  return out;
}

using multicore::kNoCore;
using multicore::Placement;

TaskSet subset(const TaskSet& ts, const std::vector<TaskId>& ids) {
  TaskSet out;
  for (const TaskId id : ids) out.add(ts[id]);
  return out;
}

std::vector<TaskId> by_utilization_desc(const TaskSet& ts) {
  std::vector<TaskId> order(ts.size());
  std::iota(order.begin(), order.end(), TaskId{0});
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    const double ua = ts[a].utilization();
    const double ub = ts[b].utilization();
    return ua != ub ? ua > ub : a < b;
  });
  return order;
}

bool place_primaries(const TaskSet& ts, std::size_t cores, Placement& p) {
  std::vector<std::vector<TaskId>> on_core(cores);
  for (const TaskId id : by_utilization_desc(ts)) {
    bool placed = false;
    for (std::size_t c = 0; c < cores && !placed; ++c) {
      std::vector<TaskId> candidate = on_core[c];
      candidate.push_back(id);
      if (ref::is_feasible(subset(ts, candidate))) {
        on_core[c] = std::move(candidate);
        p.primary[id] = c;
        placed = true;
      }
    }
    if (!placed) {
      p.reason = "no core can schedule task '" + ts[id].name +
                 "' on top of its first-fit load";
      return false;
    }
  }
  return true;
}

Placement first_fit(const TaskSet& ts, std::size_t cores) {
  Placement p;
  p.primary.assign(ts.size(), kNoCore);
  p.backup.assign(ts.size(), kNoCore);
  if (!place_primaries(ts, cores, p)) return p;
  if (cores > 1) {
    for (TaskId id = 0; id < ts.size(); ++id) {
      p.backup[id] = (p.primary[id] + 1) % cores;
    }
  }
  p.feasible = true;
  return p;
}

Placement fault_aware(const TaskSet& ts, std::size_t cores) {
  Placement p;
  p.primary.assign(ts.size(), kNoCore);
  p.backup.assign(ts.size(), kNoCore);
  if (!place_primaries(ts, cores, p)) return p;
  if (cores == 1) {
    p.feasible = true;
    return p;
  }
  std::vector<std::vector<TaskId>> primaries_on(cores);
  for (TaskId id = 0; id < ts.size(); ++id) {
    primaries_on[p.primary[id]].push_back(id);
  }
  std::vector<std::vector<std::vector<TaskId>>> groups(
      cores, std::vector<std::vector<TaskId>>(cores));
  for (const TaskId id : by_utilization_desc(ts)) {
    const std::size_t f = p.primary[id];
    bool placed = false;
    for (std::size_t j = 0; j < cores && !placed; ++j) {
      if (j == f) continue;
      std::vector<TaskId> candidate = primaries_on[j];
      candidate.insert(candidate.end(), groups[f][j].begin(),
                       groups[f][j].end());
      candidate.push_back(id);
      if (ref::is_feasible(subset(ts, candidate))) {
        groups[f][j].push_back(id);
        p.backup[id] = j;
        placed = true;
      }
    }
    if (!placed) {
      p.reason = "no core can absorb the backup of task '" + ts[id].name +
                 "' when core " + std::to_string(f) + " fails";
      return p;
    }
  }
  p.feasible = true;
  return p;
}

bool survives_any_single_fault(const TaskSet& ts, const Placement& placement,
                               std::size_t cores) {
  if (!placement.feasible) return false;
  for (std::size_t f = 0; f < cores; ++f) {
    for (std::size_t j = 0; j < cores; ++j) {
      if (j == f) continue;
      std::vector<TaskId> load;
      for (TaskId id = 0; id < ts.size(); ++id) {
        if (placement.primary[id] == j) load.push_back(id);
      }
      for (TaskId id = 0; id < ts.size(); ++id) {
        if (placement.primary[id] == f && placement.backup[id] == j) {
          if (placement.backup[id] == placement.primary[id]) return false;
          load.push_back(id);
        }
      }
      if (!ref::is_feasible(subset(ts, load))) return false;
    }
  }
  for (TaskId id = 0; id < ts.size(); ++id) {
    if (cores > 1 && placement.backup[id] == kNoCore) return false;
  }
  return true;
}

BlockingVerdict response_time_with_blocking(const TaskSet& ts, TaskId id,
                                            const ResourceModel& resources) {
  BlockingVerdict v;
  v.id = id;
  v.blocking = resources.blocking_term(ts, id);
  const TaskSet inflated = with_cost(ts, id, ts[id].cost + v.blocking);
  const auto r = ref::classic_response_time(inflated, id);
  if (r.has_value()) {
    v.bounded = true;
    v.wcrt = *r;
    v.meets_deadline = v.wcrt <= ts[id].deadline;
  }
  return v;
}

Duration equitable_allowance_with_blocking(const TaskSet& ts,
                                           const ResourceModel& resources,
                                           Duration granularity) {
  const auto feasible = [&](Duration a) {
    const TaskSet inflated = with_all_costs_inflated(ts, a);
    for (TaskId i = 0; i < ts.size(); ++i) {
      if (!ref::response_time_with_blocking(inflated, i, resources)
               .meets_deadline) {
        return false;
      }
    }
    return true;
  };
  if (!feasible(Duration::zero())) return Duration::zero();
  Duration bound = Duration::max();
  for (const TaskParams& t : ts) bound = std::min(bound, t.deadline - t.cost);
  return ref::monotone_search(granularity, slack_bound(bound), feasible);
}

}  // namespace ref

// ---------------------------------------------------------------------------
// The corpus.
// ---------------------------------------------------------------------------

/// Up to 7 tasks over a period menu with a 20 ms hyperperiod, so even a
/// busy period that runs to the hyperperiod stays short for the
/// reference: deadlines 0.5-3 × T, priorities drawn from 1-4 (ties are
/// common) and about one cost in ten set to 1 ns.
TaskSet menu_set(std::uint64_t seed) {
  static constexpr std::int64_t kHalfMs[] = {2, 4, 5, 8, 10, 20, 40};
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(rng.next_in(1, 7));
  const std::vector<double> u =
      uunifast(rng, n, 0.3 + 0.7 * rng.next_double());
  TaskSet ts;
  for (std::size_t i = 0; i < n; ++i) {
    TaskParams p;
    p.name = "m" + std::to_string(i);
    p.priority = static_cast<Priority>(rng.next_in(1, 4));
    p.period = Duration::us(500 * kHalfMs[rng.next_in(0, 6)]);
    const auto period = static_cast<double>(p.period.count());
    const auto c = static_cast<std::int64_t>(u[i] * period);
    const bool tiny = rng.next_in(0, 9) == 0;
    p.cost = Duration::ns(tiny ? 1 : std::max<std::int64_t>(c, 1));
    const double factor = 0.5 + 2.5 * rng.next_double();
    const auto d = static_cast<std::int64_t>(factor * period);
    p.deadline = Duration::ns(std::max<std::int64_t>(d, 1));
    ts.add(std::move(p));
  }
  return ts;
}

/// Two to four tasks on 4/8/16 ms periods whose load is exactly 1, then
/// `nudge` ns on the first cost: +1 puts the load just above 1, -1 just
/// below. Deadlines are 1-3 × T.
TaskSet full_load_set(std::uint64_t seed, std::int64_t nudge) {
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(rng.next_in(2, 4));
  // Sixteen sixteenths of load, at least one per task.
  std::vector<std::int64_t> sixteenths(n, 1);
  const auto last = static_cast<std::int64_t>(n) - 1;
  for (auto left = 16 - static_cast<std::int64_t>(n); left > 0; --left) {
    ++sixteenths[static_cast<std::size_t>(rng.next_in(0, last))];
  }
  TaskSet ts;
  for (std::size_t i = 0; i < n; ++i) {
    TaskParams p;
    p.name = "f" + std::to_string(i);
    p.priority = static_cast<Priority>(rng.next_in(1, 3));
    p.period = Duration::ms(std::int64_t{4} << rng.next_in(0, 2));
    p.cost = Duration::ns(sixteenths[i] * (p.period.count() / 16));
    if (i == 0) p.cost += Duration::ns(nudge);
    p.deadline = p.period * rng.next_in(1, 3);
    ts.add(std::move(p));
  }
  return ts;
}

/// The sweep's own population: log-uniform periods over 10 ms-1 s,
/// D = 0.8-1 × T, deadline-monotonic priorities.
TaskSet sweep_set(std::uint64_t seed, std::size_t max_tasks, double max_u) {
  Rng rng(seed);
  RandomTaskSetSpec spec;
  spec.tasks = static_cast<std::size_t>(
      rng.next_in(2, static_cast<std::int64_t>(max_tasks)));
  spec.total_utilization = 0.4 + (max_u - 0.4) * rng.next_double();
  return sweep::make_random_task_set(rng, spec);
}

/// Costs at int64 scale. In the first two sets a level load above 1
/// makes the recurrence overflow before any iterate passes the period:
/// the kernel meets the overflow before its deferred load test, where
/// the reference never iterates at all. The third set is feasible.
std::vector<TaskSet> overflow_sets() {
  constexpr std::int64_t k61 = std::int64_t{1} << 61;
  constexpr std::int64_t k62 = std::int64_t{1} << 62;
  const auto task = [](const char* name, Priority prio, std::int64_t c,
                       std::int64_t t, std::int64_t d) {
    return TaskParams{name, prio, Duration::ns(c), Duration::ns(t),
                      Duration::ns(d), Duration::zero()};
  };
  std::vector<TaskSet> out(3);
  // Two full-load tasks at one priority: each one's first iterate
  // overflows.
  out[0].add(task("a", 3, k62, k62, k62));
  out[0].add(task("b", 3, k62, k62, k62));
  out[0].add(task("c", 1, 1, k62, k62));
  // The second iterate overflows while still inside the period.
  out[1].add(task("a", 2, k62, k62, k62));
  out[1].add(task("c", 1, k61, 3 * k61, 3 * k61));
  // Huge but feasible, with a deadline past the period.
  out[2].add(task("hi", 2, k61 >> 21, k61 >> 19, k61 >> 19));
  out[2].add(task("lo", 1, k61 >> 20, k61 >> 18, k61 >> 17));
  return out;
}

const std::vector<TaskSet>& corpus() {
  static const std::vector<TaskSet> sets = [] {
    std::vector<TaskSet> out;
    for (std::uint64_t s = 0; s < 300; ++s) out.push_back(menu_set(s));
    for (std::uint64_t s = 0; s < 150; ++s) {
      out.push_back(sweep_set(1000 + s, 12, 0.95));
    }
    for (std::uint64_t s = 0; s < 30; ++s) {
      for (const std::int64_t nudge : {0, 1, -1}) {
        out.push_back(full_load_set(2000 + s, nudge));
      }
    }
    for (TaskSet& ts : overflow_sets()) out.push_back(std::move(ts));
    return out;
  }();
  return sets;
}

/// Sets for the partitioners: the corpus plus heavier sweep sets that
/// need several cores.
const std::vector<TaskSet>& placement_corpus() {
  static const std::vector<TaskSet> sets = [] {
    std::vector<TaskSet> out = corpus();
    for (std::uint64_t s = 0; s < 100; ++s) {
      out.push_back(sweep_set(3000 + s, 12, 2.4));
    }
    return out;
  }();
  return sets;
}

void expect_same(const RtaResult& got, const RtaResult& want) {
  EXPECT_EQ(got.bounded, want.bounded);
  EXPECT_EQ(got.wcrt, want.wcrt);
  EXPECT_EQ(got.worst_job, want.worst_job);
  EXPECT_EQ(got.jobs_examined, want.jobs_examined);
  ASSERT_EQ(got.jobs.size(), want.jobs.size());
  for (std::size_t k = 0; k < got.jobs.size(); ++k) {
    EXPECT_EQ(got.jobs[k].index, want.jobs[k].index);
    EXPECT_EQ(got.jobs[k].completion, want.jobs[k].completion);
    EXPECT_EQ(got.jobs[k].response, want.jobs[k].response);
  }
}

void expect_same_placement(const TaskSet& ts, std::size_t cores,
                           const multicore::Placement& got,
                           const multicore::Placement& want) {
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.reason, want.reason);
  EXPECT_EQ(got.primary, want.primary);
  EXPECT_EQ(got.backup, want.backup);
  EXPECT_EQ(testsupport::survives_any_single_fault(ts, got, cores),
            ref::survives_any_single_fault(ts, want, cores));
}

// ---------------------------------------------------------------------------
// Equivalence.
// ---------------------------------------------------------------------------

TEST(RtaKernel, CorpusCoversTheEdgeCases) {
  std::size_t arbitrary = 0, ties = 0, exactly_one = 0, above_one = 0,
              one_ns = 0, multi_job = 0, overflow = 0;
  for (const TaskSet& ts : corpus()) {
    bool d_past_t = false, tied = false, tiny = false, long_busy = false;
    for (TaskId i = 0; i < ts.size(); ++i) {
      d_past_t = d_past_t || ts[i].deadline > ts[i].period;
      tiny = tiny || ts[i].cost == 1_ns;
      overflow += ts[i].period.count() >= (std::int64_t{1} << 61) ? 1 : 0;
      long_busy = long_busy || ref::response_time(ts, i).jobs_examined > 1;
      for (TaskId j = 0; j < i; ++j) {
        tied = tied || ts[i].priority == ts[j].priority;
      }
    }
    arbitrary += d_past_t ? 1 : 0;
    ties += tied ? 1 : 0;
    one_ns += tiny ? 1 : 0;
    multi_job += long_busy ? 1 : 0;
    exactly_one += load_test(ts) == LoadVerdict::kExactlyOne ? 1 : 0;
    above_one += load_test(ts) == LoadVerdict::kAboveOne ? 1 : 0;
  }
  EXPECT_GE(placement_corpus().size(), 500u);
  EXPECT_GT(arbitrary, 100u);
  EXPECT_GT(ties, 100u);
  EXPECT_GE(exactly_one, 30u);
  EXPECT_GE(above_one, 30u);
  EXPECT_GT(one_ns, 20u);
  EXPECT_GT(multi_job, 20u);
  EXPECT_GT(overflow, 0u);
}

TEST(RtaKernel, ResponseTimesMatchTheReference) {
  RtaOptions recorded;
  recorded.record_jobs = true;
  RtaOptions tight;  // guard rails that trip mid-analysis.
  tight.max_jobs = 3;
  tight.max_iterations = 40;
  for (std::size_t k = 0; k < corpus().size(); ++k) {
    const TaskSet& ts = corpus()[k];
    SCOPED_TRACE("set " + std::to_string(k));
    for (const RtaOptions& opts : {recorded, tight}) {
      const std::vector<RtaResult> all = response_times(ts, opts);
      for (TaskId i = 0; i < ts.size(); ++i) {
        SCOPED_TRACE("task " + std::to_string(i));
        const RtaResult want = ref::response_time(ts, i, opts);
        expect_same(response_time(ts, i, opts), want);
        expect_same(all[i], want);
        EXPECT_EQ(classic_response_time(ts, i, opts),
                  ref::classic_response_time(ts, i, opts));
      }
    }
  }
}

TEST(RtaKernel, FeasibilityMatchesTheReference) {
  for (std::size_t k = 0; k < corpus().size(); ++k) {
    const TaskSet& ts = corpus()[k];
    SCOPED_TRACE("set " + std::to_string(k));
    const FeasibilityReport got = analyze(ts);
    const FeasibilityReport want = ref::analyze(ts);
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.load, want.load);
    EXPECT_EQ(got.utilization, want.utilization);
    ASSERT_EQ(got.tasks.size(), want.tasks.size());
    for (std::size_t i = 0; i < got.tasks.size(); ++i) {
      EXPECT_EQ(got.tasks[i].id, want.tasks[i].id);
      EXPECT_EQ(got.tasks[i].bounded, want.tasks[i].bounded);
      EXPECT_EQ(got.tasks[i].wcrt, want.tasks[i].wcrt);
      EXPECT_EQ(got.tasks[i].meets_deadline, want.tasks[i].meets_deadline);
    }
    EXPECT_EQ(is_feasible(ts), want.feasible);
  }
}

TEST(RtaKernel, ReportsTheLastCompletionAndTheMissItDates) {
  // The reference has neither field: the last completion is pinned to
  // the jobs recorded, and a capped miss of job q to the uncapped
  // recurrence, whose job q completes past q·T + D or is never reached.
  RtaOptions recorded;
  recorded.record_jobs = true;
  std::size_t multi_job = 0;
  for (std::size_t k = 0; k < corpus().size(); ++k) {
    const TaskSet& ts = corpus()[k];
    SCOPED_TRACE("set " + std::to_string(k));
    const PriorityView view(ts);
    for (std::size_t pos = 0; pos < view.size(); ++pos) {
      const RtaResult full = busy_period(view, pos, recorded);
      const RtaResult capped = busy_period(view, pos, recorded, {}, true);
      for (const RtaResult* r : {&full, &capped}) {
        EXPECT_EQ(r->bounded, r->stop == RtaStop::kClosed);
        if (r->jobs_examined == 0) {
          EXPECT_EQ(r->last_completion, Duration::zero());
        } else if (r->jobs.size() ==
                   static_cast<std::size_t>(r->jobs_examined)) {
          EXPECT_EQ(r->last_completion, r->jobs.back().completion);
        }
      }
      multi_job += full.bounded && full.jobs_examined > 1 ? 1 : 0;
      if (capped.stop != RtaStop::kMiss) continue;
      const auto q = static_cast<std::size_t>(capped.jobs_examined);
      if (full.jobs.size() > q) {
        const TaskParams& t = ts[view.id(pos)];
        EXPECT_GT(full.jobs[q].completion,
                  t.period * static_cast<std::int64_t>(q) + t.deadline);
      } else {
        EXPECT_TRUE(full.jobs.size() == q || full.stop != RtaStop::kClosed);
      }
    }
  }
  EXPECT_GT(multi_job, 20u);
}

TEST(RtaKernel, NamesWhyAnAnalysisStopped) {
  const auto task = [](const char* name, Priority prio, std::int64_t c,
                       std::int64_t t, std::int64_t d) {
    return TaskParams{name, prio, Duration::ns(c), Duration::ns(t),
                      Duration::ns(d), Duration::zero()};
  };
  const auto lowest = [](const TaskSet& ts, bool cap,
                         const RtaOptions& opts = {}) {
    const PriorityView view(ts);
    return busy_period(view, view.size() - 1, opts, {}, cap);
  };
  constexpr std::int64_t kMs = 1'000'000;

  // Closed: "lo" completes at 7, 14 and 18 ms, the third job within its
  // own period.
  TaskSet closes;
  closes.add(task("hi", 2, 3 * kMs, 10 * kMs, 10 * kMs));
  closes.add(task("lo", 1, 4 * kMs, 6 * kMs, 8 * kMs));
  RtaResult r = lowest(closes, true);
  EXPECT_EQ(r.stop, RtaStop::kClosed);
  EXPECT_TRUE(r.bounded);
  EXPECT_EQ(r.jobs_examined, 3);
  EXPECT_EQ(r.last_completion, 18_ms);
  EXPECT_EQ(r.wcrt, 8_ms);

  // A certain miss of job 1: with D = 7 ms its iterate passes 6 + 7 ms.
  // Uncapped, the same busy period closes at 18 ms with WCRT 8 ms.
  TaskSet misses;
  misses.add(task("hi", 2, 3 * kMs, 10 * kMs, 10 * kMs));
  misses.add(task("lo", 1, 4 * kMs, 6 * kMs, 7 * kMs));
  r = lowest(misses, true);
  EXPECT_EQ(r.stop, RtaStop::kMiss);
  EXPECT_FALSE(r.bounded);
  EXPECT_EQ(r.jobs_examined, 1);
  EXPECT_EQ(r.last_completion, 7_ms);
  r = lowest(misses, false);
  EXPECT_EQ(r.stop, RtaStop::kClosed);
  EXPECT_EQ(r.last_completion, 18_ms);
  EXPECT_EQ(r.wcrt, 8_ms);

  // A level load of 3/4 + 2/5: the first iterate past T = 4 ms, still
  // inside D = 6 ms, meets the load test, capped or not.
  TaskSet overloaded;
  overloaded.add(task("hi", 2, 2 * kMs, 5 * kMs, 5 * kMs));
  overloaded.add(task("lo", 1, 3 * kMs, 4 * kMs, 6 * kMs));
  for (const bool cap : {true, false}) {
    r = lowest(overloaded, cap);
    EXPECT_EQ(r.stop, RtaStop::kOverload);
    EXPECT_EQ(r.jobs_examined, 0);
  }

  // The guard rails, on the set that closes.
  RtaOptions few_iterations;
  few_iterations.max_iterations = 2;
  EXPECT_EQ(lowest(closes, true, few_iterations).stop, RtaStop::kGuardRail);
  RtaOptions one_job;
  one_job.max_jobs = 1;
  r = lowest(closes, true, one_job);
  EXPECT_EQ(r.stop, RtaStop::kGuardRail);
  EXPECT_EQ(r.jobs_examined, 1);
  EXPECT_EQ(r.last_completion, 7_ms);

  // Load 0.61 + 0.36: the second iterate, 5.6e18 + 2 x 2e18 ns, passes
  // int64. No cap dates a deadline of int64 max, and the load test
  // clears the uncapped analysis: a guard rail either way. A deadline
  // that int64 holds dates the miss of job 0.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto overflow_set = [&](std::int64_t d) {
    TaskSet ts;
    ts.add(task("hi", 2, 2'000'000'000'000'000'000, 5'500'000'000'000'000'000,
                5'500'000'000'000'000'000));
    ts.add(task("lo", 1, 5'600'000'000'000'000'000, kMax, d));
    return ts;
  };
  EXPECT_EQ(lowest(overflow_set(kMax), false).stop, RtaStop::kGuardRail);
  EXPECT_EQ(lowest(overflow_set(kMax), true).stop, RtaStop::kGuardRail);
  r = lowest(overflow_set(9'000'000'000'000'000'000), true);
  EXPECT_EQ(r.stop, RtaStop::kMiss);
  EXPECT_EQ(r.jobs_examined, 0);
}

TEST(RtaKernel, AllowancesMatchTheReference) {
  for (const Duration g : {1_ns, 100_us, 1_ms}) {
    AllowanceOptions opts;
    opts.granularity = g;
    for (std::size_t k = 0; k < corpus().size(); ++k) {
      const TaskSet& ts = corpus()[k];
      SCOPED_TRACE("set " + std::to_string(k) + ", granularity " +
                   to_string(g));
      const EquitableAllowance ea = equitable_allowance(ts, opts);
      const EquitableAllowance ea_ref = ref::equitable_allowance(ts, opts);
      EXPECT_EQ(ea.feasible_at_zero, ea_ref.feasible_at_zero);
      EXPECT_EQ(ea.allowance, ea_ref.allowance);
      EXPECT_EQ(ea.inflated_wcrt, ea_ref.inflated_wcrt);

      const SystemAllowance sa = system_allowance(ts, opts);
      const SystemAllowance sa_ref = ref::system_allowance(ts, opts);
      EXPECT_EQ(sa.feasible_at_zero, sa_ref.feasible_at_zero);
      EXPECT_EQ(sa.budget, sa_ref.budget);
      EXPECT_EQ(sa.beneficiary, sa_ref.beneficiary);
      EXPECT_EQ(sa.nominal_wcrt, sa_ref.nominal_wcrt);
      EXPECT_EQ(sa.stop_thresholds, sa_ref.stop_thresholds);
      EXPECT_EQ(sa.sound_stop_thresholds, sa_ref.sound_stop_thresholds);
    }
  }
}

TEST(RtaKernel, PlacementsMatchTheReference) {
  const multicore::FirstFitDecreasing first_fit;
  const multicore::FaultAware fault_aware;
  for (std::size_t k = 0; k < placement_corpus().size(); ++k) {
    const TaskSet& ts = placement_corpus()[k];
    for (const std::size_t cores : {1u, 2u, 3u}) {
      SCOPED_TRACE("set " + std::to_string(k) + " on " +
                   std::to_string(cores) + " cores");
      expect_same_placement(ts, cores, first_fit.place(ts, cores),
                            ref::first_fit(ts, cores));
      expect_same_placement(ts, cores, fault_aware.place(ts, cores),
                            ref::fault_aware(ts, cores));
    }
  }
}

TEST(RtaKernel, BlockingAnalysesMatchTheReference) {
  for (std::size_t k = 0; k < corpus().size(); ++k) {
    const TaskSet& ts = corpus()[k];
    SCOPED_TRACE("set " + std::to_string(k));
    // About half the tasks lock one of two resources for half their cost.
    Rng rng(k);
    ResourceModel resources;
    for (TaskId i = 0; i < ts.size(); ++i) {
      if (rng.next_in(0, 1) == 0) continue;
      const auto hold = std::max<std::int64_t>(ts[i].cost.count() / 2, 1);
      resources.add(ts[i].name, rng.next_in(0, 1) == 0 ? "bus" : "disk",
                    Duration::ns(hold));
    }
    for (TaskId i = 0; i < ts.size(); ++i) {
      const BlockingVerdict got = response_time_with_blocking(ts, i, resources);
      const BlockingVerdict want =
          ref::response_time_with_blocking(ts, i, resources);
      EXPECT_EQ(got.blocking, want.blocking);
      EXPECT_EQ(got.bounded, want.bounded);
      EXPECT_EQ(got.wcrt, want.wcrt);
      EXPECT_EQ(got.meets_deadline, want.meets_deadline);
    }
    for (const Duration g : {1_ns, 1_ms}) {
      EXPECT_EQ(equitable_allowance_with_blocking(ts, resources, g),
                ref::equitable_allowance_with_blocking(ts, resources, g));
    }
  }
}

// ---------------------------------------------------------------------------
// The heavy tail.
// ---------------------------------------------------------------------------

TEST(RtaKernel, SweepAnalysisSeed35Scenario305) {
  // The sweep-analysis grid of the end-to-end benchmark, seed 35: its
  // scenario 305 (28 tasks, U 0.9) spent seconds in the reference's
  // system-allowance search, so the expected values are recorded
  // constants rather than a reference run.
  sweep::SweepOptions o;
  o.base_seed = 35;
  o.grid.task_counts = {16, 24, 28};
  o.grid.utilizations = {0.6, 0.75, 0.9};
  o.grid.core_counts = {1, 4};
  const sweep::ScenarioSpec spec = sweep::scenario_spec(o, 305);
  ASSERT_EQ(spec.tasks.tasks, 28u);
  ASSERT_EQ(spec.tasks.total_utilization, 0.9);
  const TaskSet ts = sweep::make_seeded_task_set(spec.seed, spec.tasks);
  ASSERT_TRUE(is_feasible(ts));

  AllowanceOptions opts;
  opts.granularity = o.allowance_granularity;
  const core::TreatmentPlan plan = core::make_treatment_plan(
      ts, core::TreatmentPolicy::kSystemAllowance, opts);
  const auto sum = [](const std::vector<Duration>& v) {
    Duration total;
    for (const Duration d : v) total += d;
    return total;
  };
  EXPECT_EQ(plan.allowance, 100_us);
  EXPECT_EQ(sum(plan.nominal_wcrt), Duration::ns(1'842'475'213));
  EXPECT_EQ(sum(plan.thresholds), Duration::ns(1'845'275'213));
  EXPECT_EQ(plan.thresholds.back(), Duration::ns(243'277'465));

  const SystemAllowance sa = system_allowance(ts, opts);
  EXPECT_EQ(sa.beneficiary, 0u);
  EXPECT_EQ(sum(sa.sound_stop_thresholds), Duration::ns(1'983'012'392));

  const EquitableAllowance ea = equitable_allowance(ts, opts);
  EXPECT_EQ(ea.allowance, Duration::zero());
  EXPECT_EQ(sum(ea.inflated_wcrt), Duration::ns(1'842'475'213));
}

}  // namespace
}  // namespace rtft::sched
