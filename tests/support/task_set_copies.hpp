// Copy-based task-set probes: the reference the kernel's in-place
// Inflation is checked against (rta_kernel_test), and the plain way for
// a test to state "this set, with one thing changed".
#pragma once

#include <utility>

#include "common/assert.hpp"
#include "sched/task.hpp"

namespace rtft::testsupport {

/// Copy of `ts` with every cost inflated by `extra` (§4.2's probe).
inline sched::TaskSet with_all_costs_inflated(const sched::TaskSet& ts,
                                              Duration extra) {
  RTFT_EXPECTS(!extra.is_negative(), "inflation must be non-negative");
  sched::TaskSet out;
  for (sched::TaskParams t : ts) {
    t.cost += extra;
    out.add(std::move(t));
  }
  return out;
}

/// Copy of `ts` with task `id`'s cost replaced (§4.3's probe).
inline sched::TaskSet with_cost(const sched::TaskSet& ts, sched::TaskId id,
                                Duration cost) {
  RTFT_EXPECTS(id < ts.size(), "task id out of range");
  sched::TaskSet out;
  for (sched::TaskId i = 0; i < ts.size(); ++i) {
    sched::TaskParams t = ts[i];
    if (i == id) t.cost = cost;
    out.add(std::move(t));
  }
  return out;
}

/// Copy of `ts` with task `id`'s priority replaced.
inline sched::TaskSet with_priority(const sched::TaskSet& ts, sched::TaskId id,
                                    sched::Priority p) {
  RTFT_EXPECTS(id < ts.size(), "task id out of range");
  sched::TaskSet out;
  for (sched::TaskId i = 0; i < ts.size(); ++i) {
    sched::TaskParams t = ts[i];
    if (i == id) t.priority = p;
    out.add(std::move(t));
  }
  return out;
}

}  // namespace rtft::testsupport
