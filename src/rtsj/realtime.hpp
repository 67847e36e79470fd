// RTSJ-flavoured API veneer.
//
// The paper packages its contribution as Java classes: a
// javax.realtime.extended package whose RealtimeThreadExtended overloads
// addToFeasibility()/removeFromFeasibility() (delegating to a *correct*
// FeasibilityAnalysis — the RI's was wrong and jRate's missing, §2.3),
// overloads start() to launch a per-thread detector with an offset equal
// to the WCRT (§3.1), and wraps waitForNextPeriod() between
// computeBeforePeriodic()/computeAfterPeriodic() hooks.
//
// This header mirrors that surface in C++ so code reads like the paper —
// Java-style method names are intentional. Underneath everything maps
// onto the virtual-time engine: thread bodies are simulated costs (the
// substrate substitution of DESIGN.md), the hooks are real callbacks.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "runtime/engine.hpp"
#include "sched/feasibility.hpp"

namespace rtft::rtsj {

/// javax.realtime.PriorityParameters.
class PriorityParameters {
 public:
  explicit PriorityParameters(sched::Priority priority)
      : priority_(priority) {}
  [[nodiscard]] sched::Priority getPriority() const { return priority_; }

 private:
  sched::Priority priority_;
};

/// javax.realtime.PeriodicParameters: start offset, period, cost,
/// deadline (deadline defaults to the period, as in the RTSJ).
class PeriodicParameters {
 public:
  PeriodicParameters(Duration start, Duration period, Duration cost,
                     Duration deadline = Duration::zero())
      : start_(start),
        period_(period),
        cost_(cost),
        deadline_(deadline.is_zero() ? period : deadline) {}
  [[nodiscard]] Duration getStart() const { return start_; }
  [[nodiscard]] Duration getPeriod() const { return period_; }
  [[nodiscard]] Duration getCost() const { return cost_; }
  [[nodiscard]] Duration getDeadline() const { return deadline_; }

 private:
  Duration start_;
  Duration period_;
  Duration cost_;
  Duration deadline_;
};

class RealtimeThread;

/// The "virtual machine": engine + the corrected admission control the
/// paper contributes (the work RTSJ routes through PriorityScheduler).
class VirtualMachine {
 public:
  explicit VirtualMachine(Duration horizon);

  /// Runs every started thread until the horizon.
  void run();

  [[nodiscard]] rt::Engine& engine() { return *engine_; }
  [[nodiscard]] const rt::Engine& engine() const { return *engine_; }
  [[nodiscard]] sched::FeasibilityAnalysis& scheduler() {
    return admission_;
  }

 private:
  std::unique_ptr<rt::Engine> engine_;
  sched::FeasibilityAnalysis admission_;
};

/// javax.realtime.RealtimeThread analog: one periodic logical thread.
class RealtimeThread {
 public:
  RealtimeThread(VirtualMachine& vm, std::string name,
                 PriorityParameters priority, PeriodicParameters release);
  virtual ~RealtimeThread() = default;
  RealtimeThread(const RealtimeThread&) = delete;
  RealtimeThread& operator=(const RealtimeThread&) = delete;

  /// Admission control (§2.3): true iff the system with this thread
  /// stays feasible; the thread is then part of the admitted set.
  bool addToFeasibility();
  /// Withdraws the thread from the admitted set.
  bool removeFromFeasibility();

  /// Registers the thread with the engine; releases begin at its start
  /// offset. Must be admitted first (or call with force=true to model
  /// systems that skip admission).
  virtual void start();

  /// §3.1 hooks around each job (waitForNextPeriod bracketing).
  virtual void computeBeforePeriodic(std::int64_t /*job*/) {}
  virtual void computeAfterPeriodic(std::int64_t /*job*/) {}

  /// Experiment support: per-job actual costs (fault injection).
  void setCostModel(rt::CostModel model);

  [[nodiscard]] const std::string& getName() const { return params_.name; }
  /// Valid after start().
  [[nodiscard]] rt::TaskHandle handle() const;
  [[nodiscard]] const rt::TaskStats& getStats() const;

 protected:
  VirtualMachine& vm_;
  sched::TaskParams params_;
  rt::CostModel cost_model_;
  bool admitted_ = false;
  bool started_ = false;
  rt::TaskHandle handle_ = 0;
};

/// The paper's javax.realtime.extended.RealtimeThreadExtended: start()
/// additionally launches the WCRT-offset detector; interrupt() is the
/// cooperative stop of §4.1.
class RealtimeThreadExtended : public RealtimeThread {
 public:
  using FaultHandler =
      std::function<void(RealtimeThreadExtended&, std::int64_t job)>;

  RealtimeThreadExtended(VirtualMachine& vm, std::string name,
                         PriorityParameters priority,
                         PeriodicParameters release);

  /// Installs a fault reaction (default: none — detection only).
  void setFaultHandler(FaultHandler handler);
  /// Detector timer quantization (default: the paper's 10 ms nearest).
  void setDetectorConfig(core::DetectorConfig config);
  /// Overrides the detector threshold; by default start() uses the
  /// WCRT computed from the VM's admitted set.
  void setDetectorThreshold(Duration threshold);

  /// §3.1: super.start(), then the periodic detector with an offset
  /// equal to the (quantized) worst-case response time.
  void start() override;

  /// §4.1: cooperative stop of the whole thread.
  void interrupt();

  [[nodiscard]] std::int64_t faultsDetected() const;
  /// The quantized threshold the running detector uses (post-start).
  [[nodiscard]] Duration detectorThreshold() const;

 private:
  core::DetectorConfig detector_config_{};
  std::optional<Duration> explicit_threshold_;
  FaultHandler fault_handler_;
  std::unique_ptr<core::DetectorBank> detector_;
};

}  // namespace rtft::rtsj
