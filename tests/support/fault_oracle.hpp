// The global single-fault check of a multicore placement (Persya &
// Nair, PAPERS.md). FaultAware guarantees it by construction; this
// re-proves it independently, so the partitioner tests and the kernel's
// reference test compare placements against it.
#pragma once

#include <cstddef>
#include <vector>

#include "common/assert.hpp"
#include "multicore/partition.hpp"
#include "sched/feasibility.hpp"

namespace rtft::testsupport {

/// True iff, for every core f that could fail, every other core j still
/// passes RTA running its primaries plus the backups it must activate
/// (tasks with primary == f and backup == j), and on more than one core
/// every task has a backup.
inline bool survives_any_single_fault(const sched::TaskSet& ts,
                                      const multicore::Placement& placement,
                                      std::size_t cores) {
  RTFT_EXPECTS(placement.primary.size() == ts.size() &&
                   placement.backup.size() == ts.size(),
               "placement must cover the task set");
  if (!placement.feasible) return false;
  sched::PriorityView view;
  std::vector<sched::TaskId> load;
  for (std::size_t f = 0; f < cores; ++f) {
    for (std::size_t j = 0; j < cores; ++j) {
      if (j == f) continue;
      load.clear();
      for (sched::TaskId id = 0; id < ts.size(); ++id) {
        if (placement.primary[id] == j) load.push_back(id);
      }
      for (sched::TaskId id = 0; id < ts.size(); ++id) {
        if (placement.primary[id] == f && placement.backup[id] == j) {
          if (placement.backup[id] == placement.primary[id]) return false;
          load.push_back(id);
        }
      }
      view.assign(ts, load);
      if (!sched::is_feasible(view)) return false;
    }
  }
  for (sched::TaskId id = 0; id < ts.size(); ++id) {
    if (cores > 1 && placement.backup[id] == multicore::kNoCore) return false;
  }
  return true;
}

}  // namespace rtft::testsupport
