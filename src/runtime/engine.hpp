// Virtual-time execution engine: a deterministic discrete-event model of a
// fixed-priority preemptive uniprocessor running RTSJ-style periodic tasks
// and timers.
//
// This is the substitution for the paper's execution substrate (jRate VM on
// a TimeSys real-time kernel, see DESIGN.md §2): it reproduces the
// *scheduling semantics* the paper's measurements depend on —
//
//   * fixed-priority preemption, FIFO within a priority level,
//   * RTSJ periodic-thread lifecycle: a task is one logical thread; a job
//     that overruns delays its successors (releases are never lost, they
//     backlog), mirroring waitForNextPeriod() returning immediately for a
//     period that already elapsed,
//   * per-job actual costs supplied by a flat CostSpec (fault
//     injection; arbitrary callables still convert, see cost_model.hpp),
//   * cooperative stop: a stop request takes effect after a configurable
//     poll latency (Java cannot kill threads, §4.1),
//   * timers whose handlers run at their fire date in zero virtual time,
//   * nanosecond bookkeeping of releases, completions, deadline misses.
//
// Observation is decoupled from execution (§5's discipline, generalized):
// the engine writes events through a borrowed, nullable trace::Sink and
// never owns a trace buffer. Pass a trace::Recorder for full-fidelity
// traces, a trace::CountingSink for counters only, or nothing: events
// are then dropped on one null test each, and TaskStats still carries
// every verdict-relevant count.
//
// Determinism: simultaneous events are ordered Completion < OverheadDone <
// StopEffect < Timer < Release < deadline checks, then by creation
// sequence. A job completing exactly when a detector fires is therefore
// observed as finished (the paper's Figure 5: τ2 ends at its detector's
// date and is not stopped), and a job completing exactly at its deadline
// meets it. Deadline checks are not queued: a small per-task index
// validates each deadline at the first moment that decides it, with the
// same dates and order the event queue would have given them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/time.hpp"
#include "runtime/cost_model.hpp"
#include "sched/task.hpp"
#include "trace/sink.hpp"

namespace rtft::rt {

class Engine;

/// Index of a task registered with an Engine.
using TaskHandle = std::size_t;
/// Index of a timer registered with an Engine.
using TimerHandle = std::size_t;

/// What a stop request terminates (§4.1).
enum class StopMode {
  kTask,  ///< the paper's behaviour: the thread ends; no future releases.
  kJob,   ///< only the current job is abandoned; the task keeps running.
};

/// Hooks around each job, mirroring the paper's computeBeforePeriodic()/
/// computeAfterPeriodic() inserted around waitForNextPeriod().
struct TaskCallbacks {
  std::function<void(Engine&, std::int64_t job_index)> on_job_begin;
  std::function<void(Engine&, std::int64_t job_index)> on_job_end;
};

/// Timer handler; runs at the fire date in zero virtual time.
using TimerHandler = std::function<void(Engine&)>;

/// Terminal state of one released job.
enum class JobOutcome : std::uint8_t {
  kPending,    ///< released, not yet finished.
  kCompleted,  ///< ran to completion.
  kAborted,    ///< terminated by a stop request.
  kSkipped,    ///< released but never started (task stopped first).
};

/// Aggregated per-task counters, maintained during the run.
struct TaskStats {
  std::int64_t released = 0;
  std::int64_t completed = 0;
  std::int64_t missed = 0;    ///< deadline misses (incl. aborted/skipped jobs).
  std::int64_t aborted = 0;
  bool stopped = false;       ///< task terminated by a kTask stop.
  Duration max_response;      ///< over completed jobs.
  Duration last_response;
};

/// Engine construction parameters.
struct EngineOptions {
  /// End of the simulated window; events dated after it do not run.
  Instant horizon = Instant::from_ns(0);
  /// Delay between a stop request and its effect — the cooperative
  /// stop-flag poll of §4.1 (default: immediate).
  Duration stop_poll_latency = Duration::zero();
  /// CPU cost charged when the processor switches to a different job
  /// (ablation knob for the §6.2 overhead discussion; default free).
  Duration context_switch_cost = Duration::zero();
  /// Where trace events go. Borrowed: must outlive the engine (or its
  /// next reset()). Null discards every event.
  trace::Sink* sink = nullptr;
};

/// The discrete-event engine. Single-threaded; not copyable.
class Engine {
 public:
  explicit Engine(EngineOptions options);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Re-arms the engine for a fresh run under new options: forgets every
  /// task, timer, queued event and statistic while keeping the event
  /// pool, task slots and per-task vectors allocated, so one engine can
  /// execute thousands of scenarios without per-run allocation.
  void reset(EngineOptions options);

  /// Pre-sizes internal storage for a run of up to `tasks` tasks and
  /// `events` concurrently outstanding events, so the first run after
  /// construction pays no growth reallocation (reset() already keeps
  /// capacity across runs). Purely a capacity hint; over- or
  /// under-estimating is safe.
  void reserve(std::size_t tasks, std::size_t events);

  /// Registers a periodic task. First release at `start + params.offset`
  /// (which must not lie in the past). May be called while the engine is
  /// running (dynamic admission): pass `start >= now()`.
  /// `cost` accepts a flat CostSpec or (implicitly) anything callable
  /// as Duration(std::int64_t); default is the nominal cost every job.
  TaskHandle add_task(const sched::TaskParams& params, CostSpec cost = {},
                      TaskCallbacks callbacks = {},
                      Instant start = Instant::epoch());

  /// One-shot timer at `when` (>= now).
  TimerHandle add_one_shot_timer(Instant when, TimerHandler handler);
  /// Periodic timer: fires at `first`, then every `period`.
  TimerHandle add_periodic_timer(Instant first, Duration period,
                                 TimerHandler handler);
  /// Cancels all future fires of the timer.
  void cancel_timer(TimerHandle timer);

  /// Requests a cooperative stop; takes effect after the engine's
  /// stop-poll latency plus `extra_latency`.
  void request_stop(TaskHandle task, StopMode mode,
                    Duration extra_latency = Duration::zero());

  /// Adds CPU work at above-any-task priority (models detector fire cost
  /// and other kernel overheads, §6.2).
  void inject_overhead(Duration amount);

  /// Runs all events dated up to the horizon.
  void run();
  /// Runs all events dated up to `stop_at` (inclusive; <= horizon).
  void run_until(Instant stop_at);

  [[nodiscard]] Instant now() const;
  [[nodiscard]] Instant horizon() const;
  [[nodiscard]] std::size_t task_count() const;
  [[nodiscard]] const sched::TaskParams& params(TaskHandle task) const;
  /// Date of the task's first release: start + offset. Job k releases at
  /// first_release + k * period. Detectors align on this.
  [[nodiscard]] Instant first_release(TaskHandle task) const;
  [[nodiscard]] const TaskStats& stats(TaskHandle task) const;
  /// Outcome of one released job (kPending if not yet terminal).
  [[nodiscard]] JobOutcome job_outcome(TaskHandle task,
                                       std::int64_t job_index) const;
  /// True iff job `job_index` of `task` has completed. Safe for any index
  /// (unreleased jobs are simply not completed). Detectors poll this.
  [[nodiscard]] bool job_completed(TaskHandle task,
                                   std::int64_t job_index) const;
  /// Number of jobs released so far.
  [[nodiscard]] std::int64_t jobs_released(TaskHandle task) const;

  /// The sink this engine records through (the shared NullSink when none
  /// was configured). Detectors and treatments record through this too.
  [[nodiscard]] trace::Sink& sink() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rtft::rt
