#include "sched/sensitivity.hpp"

#include "common/assert.hpp"
#include "common/math.hpp"
#include "sched/feasibility.hpp"

namespace rtft::sched {
namespace {

/// Copy of `ts` with every cost scaled by ppm/1e6 (rounded up: an
/// admission test must never under-account work), floored at 1 ns.
TaskSet scaled(const TaskSet& ts, std::int64_t ppm) {
  TaskSet out;
  for (const TaskParams& t : ts) {
    TaskParams copy = t;
    const auto product = checked_mul(t.cost.count(), ppm);
    RTFT_EXPECTS(product.has_value(), "scaled cost overflows");
    std::int64_t ns = (*product + 999'999) / 1'000'000;
    if (ns < 1) ns = 1;
    copy.cost = Duration::ns(ns);
    out.add(std::move(copy));
  }
  return out;
}

}  // namespace

std::optional<Duration> response_time_with_jitter(
    const TaskSet& ts, TaskId id, const std::vector<Duration>& jitters,
    const RtaOptions& opts) {
  RTFT_EXPECTS(id < ts.size(), "task id out of range");
  RTFT_EXPECTS(jitters.size() == ts.size(), "one jitter per task");
  for (const Duration j : jitters) {
    RTFT_EXPECTS(!j.is_negative(), "jitter must be non-negative");
  }
  const PriorityView view(ts);
  const std::size_t pos = view.position(id);

  std::int64_t budget = opts.max_iterations;
  Duration r = ts[id].cost;
  while (budget-- > 0) {
    Duration next = ts[id].cost;
    for (std::size_t k = 0; k < view.interferer_end(pos); ++k) {
      if (k == pos) continue;
      const TaskId j = view.id(k);
      const std::int64_t releases =
          ceil_div(r + jitters[j], ts[j].period);
      const auto add = checked_mul(releases, ts[j].cost.count());
      if (!add) return std::nullopt;
      const auto sum = checked_add(next.count(), *add);
      if (!sum) return std::nullopt;
      next = Duration::ns(*sum);
    }
    if (next == r) return r + jitters[id];
    RTFT_ASSERT(next > r, "jitter fixed point must be monotone");
    r = next;
  }
  return std::nullopt;
}

bool is_feasible_with_jitter(const TaskSet& ts,
                             const std::vector<Duration>& jitters,
                             const RtaOptions& opts) {
  for (TaskId i = 0; i < ts.size(); ++i) {
    const auto r = response_time_with_jitter(ts, i, jitters, opts);
    if (!r || *r > ts[i].deadline) return false;
  }
  return true;
}

ScalingFactor critical_scaling_factor(const TaskSet& ts,
                                      std::int64_t precision_ppm,
                                      const RtaOptions& opts) {
  RTFT_EXPECTS(!ts.empty(), "scaling factor of an empty task set");
  RTFT_EXPECTS(precision_ppm > 0, "precision must be positive");

  const auto feasible_at = [&](std::int64_t ppm) {
    return is_feasible(scaled(ts, ppm), opts);
  };

  // Upper bound: λ where some task's scaled cost alone exceeds its
  // deadline. λ <= min_i D_i/C_i, so start just above it.
  std::int64_t hi = 0;
  for (const TaskParams& t : ts) {
    const auto ratio = checked_mul(t.deadline.count(), 1'000'000);
    RTFT_EXPECTS(ratio.has_value(), "deadline/cost ratio overflows");
    const std::int64_t bound = *ratio / t.cost.count() + precision_ppm;
    if (hi == 0 || bound < hi) hi = bound;
  }
  RTFT_ASSERT(!feasible_at(hi), "upper bound must be infeasible");

  std::int64_t lo = 0;  // λ -> 0: costs floor at 1 ns; treat as feasible
  while (hi - lo > precision_ppm) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (feasible_at(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return ScalingFactor{lo};
}

}  // namespace rtft::sched
