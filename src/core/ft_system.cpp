#include "core/ft_system.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "common/strings.hpp"

namespace rtft::core {

FaultTolerantSystem::FaultTolerantSystem(FtSystemConfig config,
                                         FaultPlan faults)
    : config_(std::move(config)), faults_(std::move(faults)) {
  RTFT_EXPECTS(!config_.tasks.empty(), "a system needs at least one task");
  RTFT_EXPECTS(config_.horizon.is_positive(), "horizon must be positive");
  faults_.validate_against(config_.tasks);
}

RunReport FaultTolerantSystem::run() {
  RTFT_EXPECTS(!ran_, "a FaultTolerantSystem runs exactly once");
  ran_ = true;

  RunReport report;
  report.feasibility = sched::analyze(config_.tasks, config_.allowance.rta);
  report.admitted = report.feasibility.feasible;
  // Threshold-bearing policies need a feasible set; an infeasible one
  // gets a detection-less plan so the report can still describe it.
  report.plan = make_treatment_plan_or_degrade(
      config_.tasks, config_.policy, report.admitted, config_.allowance);

  if (!report.admitted && !config_.run_infeasible) {
    // Admission control refuses the system (paper §2: never start a
    // system that is not theoretically feasible).
    for (sched::TaskId i = 0; i < config_.tasks.size(); ++i) {
      TaskRunReport tr;
      tr.name = config_.tasks[i].name;
      report.tasks.push_back(std::move(tr));
    }
    return report;
  }

  rt::EngineOptions engine_opts;
  engine_opts.horizon = Instant::epoch() + config_.horizon;
  engine_opts.stop_poll_latency = config_.stop_poll_latency;
  engine_opts.context_switch_cost = config_.context_switch_cost;
  recorder_ = std::make_unique<trace::Recorder>();
  engine_opts.sink = recorder_.get();
  engine_ = std::make_unique<rt::Engine>(engine_opts);

  std::vector<rt::TaskHandle> handles;
  handles.reserve(config_.tasks.size());
  for (sched::TaskId i = 0; i < config_.tasks.size(); ++i) {
    handles.push_back(engine_->add_task(
        config_.tasks[i], faults_.cost_spec_for(config_.tasks, i)));
  }

  if (report.plan.detects) {
    DetectorBank::FaultHandler handler;
    if (report.plan.stops) {
      const rt::StopMode mode = config_.stop_mode;
      handler = [mode](rt::Engine& e, rt::TaskHandle task, std::int64_t) {
        e.request_stop(task, mode);
      };
    }
    detectors_ = std::make_unique<DetectorBank>(
        *engine_, handles, report.plan.thresholds, config_.detector,
        std::move(handler));
  }

  engine_->run();
  report.executed = true;

  for (std::size_t i = 0; i < handles.size(); ++i) {
    TaskRunReport tr;
    tr.name = config_.tasks[i].name;
    tr.stats = engine_->stats(handles[i]);
    if (detectors_) {
      tr.threshold = detectors_->raw_threshold(i);
      tr.quantized_threshold = detectors_->quantized_threshold(i);
      tr.faults_detected = detectors_->faults_detected(i);
    }
    report.tasks.push_back(std::move(tr));
  }
  return report;
}

const rt::Engine& FaultTolerantSystem::engine() const {
  RTFT_EXPECTS(engine_ != nullptr, "run() has not executed the system");
  return *engine_;
}

const trace::Recorder& FaultTolerantSystem::recorder() const {
  RTFT_EXPECTS(recorder_ != nullptr,
               "recorder(): run() has not executed the system");
  return *recorder_;
}

std::int64_t RunReport::total_misses() const {
  std::int64_t total = 0;
  for (const TaskRunReport& t : tasks) total += t.stats.missed;
  return total;
}

std::vector<std::string> RunReport::missing_tasks() const {
  std::vector<std::string> out;
  for (const TaskRunReport& t : tasks) {
    if (t.stats.missed > 0) out.push_back(t.name);
  }
  return out;
}

std::string RunReport::summary() const {
  std::ostringstream out;
  out << "policy: " << to_string(plan.policy) << '\n';
  out << "admitted: " << (admitted ? "yes" : "no")
      << "  executed: " << (executed ? "yes" : "no") << '\n';
  if (plan.allowance.is_positive()) {
    out << "allowance: " << rtft::to_string(plan.allowance) << '\n';
  }
  for (const TaskRunReport& t : tasks) {
    out << "  " << pad_right(t.name, 12) << " released=" << t.stats.released
        << " completed=" << t.stats.completed << " missed=" << t.stats.missed
        << " aborted=" << t.stats.aborted
        << (t.stats.stopped ? " STOPPED" : "");
    if (t.quantized_threshold) {
      out << " threshold=" << rtft::to_string(*t.quantized_threshold);
    }
    if (t.faults_detected > 0) out << " faults=" << t.faults_detected;
    out << '\n';
  }
  return out.str();
}

}  // namespace rtft::core
