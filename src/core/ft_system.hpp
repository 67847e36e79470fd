// FaultTolerantSystem — the top-level facade, mirroring the paper's
// javax.realtime.extended package: admission control at start-up,
// detectors installed by start() with offsets equal to the (treatment-
// specific, quantized) worst-case response times, and a treatment invoked
// when a detector finds its job unfinished.
//
// One object = one experiment: configure tasks + policy + faults, call
// run(), inspect the RunReport and the trace.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/fault_model.hpp"
#include "core/treatment.hpp"
#include "runtime/engine.hpp"
#include "sched/feasibility.hpp"
#include "sched/task.hpp"
#include "trace/recorder.hpp"

namespace rtft::core {

/// Experiment configuration.
struct FtSystemConfig {
  sched::TaskSet tasks;
  TreatmentPolicy policy = TreatmentPolicy::kDetectOnly;
  /// Simulated window; all of the paper's figures use 2000 ms.
  Duration horizon = Duration::ms(2000);
  /// Detector timer quantization and per-fire cost (§6.2).
  DetectorConfig detector{};
  /// What a stop terminates (paper: the whole thread).
  rt::StopMode stop_mode = rt::StopMode::kTask;
  /// Cooperative stop-flag poll latency (§4.1).
  Duration stop_poll_latency = Duration::zero();
  /// Engine context-switch cost (ablation knob).
  Duration context_switch_cost = Duration::zero();
  /// Allowance search options (granularity, RTA guards).
  sched::AllowanceOptions allowance{};
  /// When false (default), an infeasible task set refuses to run —
  /// admission control as the paper prescribes. When true, the system
  /// runs anyway (useful to demonstrate failures).
  bool run_infeasible = false;
};

/// Per-task outcome of a run.
struct TaskRunReport {
  std::string name;
  rt::TaskStats stats;
  /// Raw analysis threshold, if the policy installs detectors.
  std::optional<Duration> threshold;
  /// Threshold after quantization (what the detector actually used).
  std::optional<Duration> quantized_threshold;
  std::int64_t faults_detected = 0;
};

/// Outcome of a run.
struct RunReport {
  /// Admission-control verdict on the configured task set.
  bool admitted = false;
  /// True when the engine actually executed (admitted or run_infeasible).
  bool executed = false;
  sched::FeasibilityReport feasibility;
  TreatmentPlan plan;
  std::vector<TaskRunReport> tasks;  ///< TaskId order.

  /// Total deadline misses across tasks.
  [[nodiscard]] std::int64_t total_misses() const;
  /// Names of tasks that missed at least one deadline.
  [[nodiscard]] std::vector<std::string> missing_tasks() const;
  /// Multi-line human-readable summary.
  [[nodiscard]] std::string summary() const;
};

/// Builds, runs and reports one fault-tolerance experiment.
class FaultTolerantSystem {
 public:
  FaultTolerantSystem(FtSystemConfig config, FaultPlan faults = {});

  /// Performs admission control, executes the scenario (unless refused)
  /// and returns the report. May be called once per object.
  RunReport run();

  /// Valid after run() when the report says executed.
  [[nodiscard]] const rt::Engine& engine() const;
  /// The run's full-fidelity trace. Valid after run() when the report
  /// says executed; throws otherwise.
  [[nodiscard]] const trace::Recorder& recorder() const;
  [[nodiscard]] const FtSystemConfig& config() const { return config_; }

 private:
  FtSystemConfig config_;
  FaultPlan faults_;
  std::unique_ptr<trace::Recorder> recorder_;
  std::unique_ptr<rt::Engine> engine_;
  std::unique_ptr<DetectorBank> detectors_;
  bool ran_ = false;
};

}  // namespace rtft::core
