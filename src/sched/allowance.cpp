#include "sched/allowance.hpp"

#include "common/assert.hpp"
#include "sched/feasibility.hpp"

namespace rtft::sched {

Duration infeasibility_bound_all(const TaskSet& ts) {
  Duration bound = Duration::max();
  for (const TaskParams& t : ts) {
    const Duration slack = t.deadline - t.cost;
    if (slack < bound) bound = slack;
  }
  // +1ns: strictly beyond the largest conceivable allowance.
  return (bound.is_negative() ? Duration::zero() : bound) + Duration::ns(1);
}

EquitableAllowance equitable_allowance(const TaskSet& ts,
                                       const AllowanceOptions& opts) {
  EquitableAllowance out;
  RTFT_EXPECTS(!ts.empty(), "allowance of an empty task set");
  const PriorityView view(ts);
  if (!is_feasible(view, opts.rta)) return out;  // feasible_at_zero = false
  out.feasible_at_zero = true;

  const Duration hi = infeasibility_bound_all(ts);
  out.allowance = monotone_search(opts.granularity, hi, [&](Duration a) {
    return is_feasible(view, opts.rta, Inflation{.all = a});
  });

  out.inflated_wcrt.resize(ts.size());
  for (std::size_t pos = 0; pos < view.size(); ++pos) {
    const RtaResult rta =
        busy_period(view, pos, opts.rta, Inflation{.all = out.allowance});
    RTFT_ASSERT(rta.bounded, "inflated system was checked feasible");
    out.inflated_wcrt[view.id(pos)] = rta.wcrt;
  }
  return out;
}

SystemAllowance system_allowance(const TaskSet& ts,
                                 const AllowanceOptions& opts) {
  SystemAllowance out;
  RTFT_EXPECTS(!ts.empty(), "allowance of an empty task set");
  const PriorityView view(ts);
  if (!is_feasible(view, opts.rta)) return out;
  out.feasible_at_zero = true;

  // Position 0: the highest priority, ties to the lowest TaskId. B is
  // the largest overrun it can make alone while the set stays feasible;
  // past its own slack it misses its own deadline, which bounds the
  // search.
  out.beneficiary = view.id(0);
  const Duration own_slack = view.deadline(0) - view.cost(0);
  const Duration hi =
      (own_slack.is_negative() ? Duration::zero() : own_slack) +
      Duration::ns(1);
  out.budget = monotone_search(opts.granularity, hi, [&](Duration extra) {
    return is_feasible(view, opts.rta, Inflation{.pos = 0, .one = extra});
  });

  const Inflation worst_case{.pos = 0, .one = out.budget};
  out.nominal_wcrt.resize(ts.size());
  out.stop_thresholds.resize(ts.size());
  out.sound_stop_thresholds.resize(ts.size());
  for (std::size_t pos = 0; pos < view.size(); ++pos) {
    const TaskId i = view.id(pos);
    const RtaResult rta = busy_period(view, pos, opts.rta);
    RTFT_ASSERT(rta.bounded, "system was checked feasible");
    out.nominal_wcrt[i] = rta.wcrt;
    out.stop_thresholds[i] = rta.wcrt + out.budget;
    const RtaResult sound = busy_period(view, pos, opts.rta, worst_case);
    RTFT_ASSERT(sound.bounded, "budgeted system is feasible by definition");
    out.sound_stop_thresholds[i] = sound.wcrt;
  }
  return out;
}

}  // namespace rtft::sched
