// Allowance (tolerance factor) computation — paper §4.2 and §4.3.
//
// The *equitable allowance* A is the largest amount that can be added to
// EVERY task's cost while the system remains feasible; it is found by
// binary search over the feasibility predicate (monotone in A). That one
// search, monotone_search, also serves the single-task overrun below and
// the blocking-aware A (blocking.hpp). The inflated WCRTs (computed with
// all costs at Ci + A) become the stop thresholds of the equitable
// treatment — Table 3 of the paper.
//
// The *system allowance* B is the largest overrun the highest-priority
// task can make alone while the system stays feasible; it is granted
// entirely to the first faulty task (§4.3). Stop thresholds WCRTi + B
// realize the "remainder flows to later faulty tasks" rule: if the first
// faulty task consumes only o < B, every lower task inherits a shift of
// at most o and retains B − o of headroom for its own overrun.
#pragma once

#include "common/assert.hpp"
#include "sched/response_time.hpp"
#include "sched/task.hpp"

namespace rtft::sched {

/// Result of the equitable-allowance search (§4.2).
struct EquitableAllowance {
  /// False when the system is infeasible even with zero allowance; the
  /// other fields are then meaningless.
  bool feasible_at_zero = false;
  /// A — the common allowance granted to every task.
  Duration allowance;
  /// WCRT of each task (TaskId order) with all costs inflated by A.
  /// These are the stop thresholds of the equitable treatment (Table 3).
  std::vector<Duration> inflated_wcrt;
};

/// Result of the system-allowance computation (§4.3).
struct SystemAllowance {
  bool feasible_at_zero = false;
  /// B — the whole spare budget, granted to the first faulty task.
  Duration budget;
  /// The highest-priority task, to which the budget is nominally granted.
  TaskId beneficiary = 0;
  /// Stop threshold of each task (TaskId order): WCRTi + B — the paper's
  /// formulation. Not a sound bound on inherited lateness in general: an
  /// overrun of B can delay a lower task by more than B when the extended
  /// window catches additional higher-priority releases.
  std::vector<Duration> stop_thresholds;
  /// Sound variant: WCRT of each task recomputed with the beneficiary's
  /// cost inflated by B. Dominates stop_thresholds, and coincides with it
  /// when no extra interference lands in the extended window (as on the
  /// paper's Table 2 system). Non-faulty tasks provably never cross it.
  std::vector<Duration> sound_stop_thresholds;
  /// Nominal WCRTs (TaskId order), for reporting.
  std::vector<Duration> nominal_wcrt;
};

/// Options common to the allowance searches.
struct AllowanceOptions {
  /// Search granularity: the result is the largest feasible multiple of
  /// this. The paper works at millisecond granularity; the default is
  /// exact to the nanosecond.
  Duration granularity = Duration::ns(1);
  RtaOptions rta{};
};

/// Largest k*granularity in [0, hi_bound] with feasible(k*granularity),
/// given feasible(0) and monotonicity (feasible(x) implies feasible(y)
/// for all y < x). `hi_bound` must satisfy !feasible(hi_bound).
template <typename Feasible>
[[nodiscard]] Duration monotone_search(Duration granularity, Duration hi_bound,
                                       const Feasible& feasible) {
  RTFT_EXPECTS(granularity.is_positive(), "granularity must be positive");
  std::int64_t lo = 0;  // feasible, in granularity units
  std::int64_t hi = ceil_div(hi_bound, granularity);  // infeasible
  RTFT_ASSERT(hi >= 1, "search upper bound must be positive");
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

/// An extra cost that, added to every task, provably breaks feasibility:
/// 1 ns past the smallest deadline-minus-cost slack, where that task
/// misses its own deadline. The upper bound of every equitable search.
[[nodiscard]] Duration infeasibility_bound_all(const TaskSet& ts);

/// Binary search for the equitable allowance A (paper §4.2).
[[nodiscard]] EquitableAllowance equitable_allowance(
    const TaskSet& ts, const AllowanceOptions& opts = {});

/// System allowance B and the per-task stop thresholds WCRTi + B (§4.3).
[[nodiscard]] SystemAllowance system_allowance(
    const TaskSet& ts, const AllowanceOptions& opts = {});

}  // namespace rtft::sched
