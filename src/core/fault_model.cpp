#include "core/fault_model.hpp"

#include <utility>

#include "common/assert.hpp"

namespace rtft::core {

void FaultPlan::add(FaultSpec spec) {
  RTFT_EXPECTS(!spec.task.empty(), "fault spec needs a task name");
  RTFT_EXPECTS(spec.job_index >= 0, "fault spec needs a valid job index");
  faults_.push_back(std::move(spec));
}

void FaultPlan::add_overrun(std::string task, std::int64_t job_index,
                            Duration extra) {
  add(FaultSpec{std::move(task), job_index, extra});
}

void FaultPlan::validate_against(const sched::TaskSet& ts) const {
  for (const FaultSpec& f : faults_) {
    RTFT_EXPECTS(ts.contains(f.task),
                 "fault references unknown task '" + f.task + "'");
  }
}

rt::CostSpec FaultPlan::cost_spec_for(const sched::TaskSet& ts,
                                      sched::TaskId id) const {
  const sched::TaskParams& params = ts[id];
  // Coalesce deltas by job: multiple faults on one (task, job) add up.
  std::vector<std::pair<std::int64_t, Duration>> deltas;
  for (const FaultSpec& f : faults_) {
    if (f.task != params.name) continue;
    bool merged = false;
    for (auto& [index, delta] : deltas) {
      if (index == f.job_index) {
        delta += f.extra_cost;
        merged = true;
        break;
      }
    }
    if (!merged) deltas.emplace_back(f.job_index, f.extra_cost);
  }
  if (deltas.empty()) return rt::CostSpec::nominal();
  if (deltas.size() == 1) {
    return rt::CostSpec::fixed_overrun(deltas[0].first, deltas[0].second);
  }
  const Duration nominal = params.cost;
  return [nominal, deltas = std::move(deltas)](std::int64_t job) {
    Duration cost = nominal;
    for (const auto& [index, delta] : deltas) {
      if (index == job) cost += delta;
    }
    return cost < Duration::ns(1) ? Duration::ns(1) : cost;
  };
}

}  // namespace rtft::core
