// Fault model (paper §3 and §6).
//
// A *temporal fault* is a job consuming more CPU than its declared cost —
// "either because it was underestimated, or because of an external event"
// (§3). The evaluation injects such overruns deliberately ("a cost overrun
// was voluntarily added for the priority task", §6). FaultPlan captures
// those injections declaratively and converts them into per-task
// CostSpecs for the engine. Negative deltas (cost under-runs, the §7
// future-work case) are also supported.
#pragma once

#include <string>
#include <vector>

#include "common/time.hpp"
#include "runtime/engine.hpp"
#include "sched/task.hpp"

namespace rtft::core {

/// One injected cost deviation.
struct FaultSpec {
  std::string task;        ///< task name (resolved against the TaskSet).
  std::int64_t job_index;  ///< 0-based job whose cost deviates.
  Duration extra_cost;     ///< added to the nominal cost (may be negative).
};

/// Declarative collection of injected faults.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Adds a fault. Multiple faults on the same (task, job) accumulate.
  void add(FaultSpec spec);

  /// Convenience: overrun of `extra` on `task`'s job `job_index`.
  void add_overrun(std::string task, std::int64_t job_index, Duration extra);

  [[nodiscard]] bool empty() const { return faults_.empty(); }
  [[nodiscard]] const std::vector<FaultSpec>& faults() const {
    return faults_;
  }

  /// Validates that every referenced task exists in `ts`.
  void validate_against(const sched::TaskSet& ts) const;

  /// CostSpec for task `id`: each job costs the task's nominal cost
  /// plus the deltas that hit it, floored at 1 ns (a job always does
  /// some work). kNominal when no fault touches the task,
  /// kFixedOverrunAtJob when every matching delta hits one job (the
  /// paper's single-injection case), kCustom over the coalesced
  /// per-job deltas otherwise.
  [[nodiscard]] rt::CostSpec cost_spec_for(const sched::TaskSet& ts,
                                           sched::TaskId id) const;

 private:
  std::vector<FaultSpec> faults_;
};

}  // namespace rtft::core
