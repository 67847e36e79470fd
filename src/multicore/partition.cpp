#include "multicore/partition.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"
#include "sched/feasibility.hpp"

namespace rtft::multicore {
namespace {

/// Task ids ordered by decreasing utilization, ties by id — the
/// deterministic first-fit-decreasing visit order.
std::vector<sched::TaskId> by_utilization_desc(const sched::TaskSet& ts) {
  std::vector<sched::TaskId> order(ts.size());
  std::iota(order.begin(), order.end(), sched::TaskId{0});
  std::sort(order.begin(), order.end(),
            [&](sched::TaskId a, sched::TaskId b) {
              const double ua = ts[a].utilization();
              const double ub = ts[b].utilization();
              return ua != ub ? ua > ub : a < b;
            });
  return order;
}

}  // namespace

Placement FirstFitDecreasing::place(const sched::TaskSet& ts,
                                    std::size_t cores) const {
  RTFT_EXPECTS(cores >= 1, "placement needs at least one core");
  Placement p;
  p.primary.assign(ts.size(), kNoCore);
  p.backup.assign(ts.size(), kNoCore);
  // Primaries: first fit under RTA admission.
  std::vector<std::vector<sched::TaskId>> on_core(cores);
  sched::PriorityView view;
  for (const sched::TaskId id : by_utilization_desc(ts)) {
    for (std::size_t c = 0; c < cores && p.primary[id] == kNoCore; ++c) {
      on_core[c].push_back(id);
      view.assign(ts, on_core[c]);
      if (sched::is_feasible(view)) {
        p.primary[id] = c;
      } else {
        on_core[c].pop_back();
      }
    }
    if (p.primary[id] == kNoCore) {
      p.reason = "no core can schedule task '" + ts[id].name +
                 "' on top of its first-fit load";
      return p;
    }
  }
  if (cores > 1) {
    // The naive baseline: next core in index order, no capacity check.
    for (sched::TaskId id = 0; id < ts.size(); ++id) {
      p.backup[id] = (p.primary[id] + 1) % cores;
    }
  }
  p.feasible = true;
  return p;
}

Placement FaultAware::place(const sched::TaskSet& ts,
                            std::size_t cores) const {
  return place_backups(ts, cores, FirstFitDecreasing{}.place(ts, cores));
}

Placement FaultAware::place_backups(const sched::TaskSet& ts,
                                    std::size_t cores, Placement p) const {
  RTFT_EXPECTS(p.primary.size() == ts.size() && p.backup.size() == ts.size(),
               "placement must cover the task set");
  // An infeasible first fit has no primaries to back up, and one core
  // has no fail-over to reserve for.
  if (!p.feasible || cores == 1) return p;
  p.feasible = false;
  std::fill(p.backup.begin(), p.backup.end(), kNoCore);
  // Backup admission. Under the single-fault hypothesis, core j only
  // ever activates the backups whose primary lives on the one failed
  // core f — so each (f, j) group is admitted independently: RTA over
  // j's primaries plus the group plus the candidate. Primaries are
  // final and groups only grow, so checking the last-added state covers
  // the final configuration.
  std::vector<std::vector<sched::TaskId>> primaries_on(cores);
  for (sched::TaskId id = 0; id < ts.size(); ++id) {
    RTFT_EXPECTS(p.primary[id] < cores, "first fit must be on these cores");
    primaries_on[p.primary[id]].push_back(id);
  }
  // groups[f][j] = backups placed on j whose primary is on f.
  std::vector<std::vector<std::vector<sched::TaskId>>> groups(
      cores, std::vector<std::vector<sched::TaskId>>(cores));
  sched::PriorityView view;
  std::vector<sched::TaskId> candidate;
  for (const sched::TaskId id : by_utilization_desc(ts)) {
    const std::size_t f = p.primary[id];
    for (std::size_t j = 0; j < cores && p.backup[id] == kNoCore; ++j) {
      if (j == f) continue;  // never co-located with its own primary.
      candidate = primaries_on[j];
      candidate.insert(candidate.end(), groups[f][j].begin(),
                       groups[f][j].end());
      candidate.push_back(id);
      view.assign(ts, candidate);
      if (sched::is_feasible(view)) {
        groups[f][j].push_back(id);
        p.backup[id] = j;
      }
    }
    if (p.backup[id] == kNoCore) {
      p.reason = "no core can absorb the backup of task '" + ts[id].name +
                 "' when core " + std::to_string(f) + " fails";
      return p;
    }
  }
  p.feasible = true;
  return p;
}

std::vector<double> primary_utilization(const sched::TaskSet& ts,
                                        const Placement& placement,
                                        std::size_t cores) {
  RTFT_EXPECTS(placement.primary.size() == ts.size(),
               "placement must cover the task set");
  std::vector<double> u(cores, 0.0);
  for (sched::TaskId id = 0; id < ts.size(); ++id) {
    const std::size_t c = placement.primary[id];
    if (c != kNoCore && c < cores) u[c] += ts[id].utilization();
  }
  return u;
}

}  // namespace rtft::multicore
