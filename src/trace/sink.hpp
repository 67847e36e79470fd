// Pluggable trace sinks — observation decoupled from execution.
//
// The paper's measurement discipline (§5) is that observing a run must
// not perturb it: events are buffered in memory and flushed only after
// the run. The Sink interface generalizes that discipline into
// pay-for-what-you-use observation: the engine (and everything layered
// on it — detectors, treatments, the wall-clock executor) writes events
// through a Sink pointer and never knows what, if anything, is kept.
//
//   CountingSink — per-task counters only, derived from the event
//                  stream; O(tasks) memory however long the run.
//   Recorder     — the full-fidelity event buffer (trace/recorder.hpp),
//                  for charts, logs, validation and golden tests.
//
// A run that needs no observation passes no sink at all (nullptr): the
// engine then drops each event on a null test (runtime/engine.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/events.hpp"

namespace rtft::trace {

/// Number of EventKind enumerators (kIdleEnd is last).
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kIdleEnd) + 1;

/// Where trace events go. Implementations must tolerate any well-formed
/// event stream; record() is called on the execution hot path, so it
/// must not perform I/O and should not allocate in steady state.
class Sink {
 public:
  virtual ~Sink() = default;

  virtual void record(const TraceEvent& event) = 0;

  /// Convenience: build + record.
  void record(Instant time, EventKind kind, std::uint32_t task = kNoTask,
              std::int64_t job = kNoJob, std::int64_t detail = 0) {
    record(TraceEvent{time, job, detail, task, kind});
  }
};

/// Per-task counters maintained by a CountingSink — the same facts an
/// engine's TaskStats carries, derived purely from the event stream.
struct TaskCounters {
  std::int64_t released = 0;
  std::int64_t started = 0;         ///< kJobStart (first CPU acquisition).
  std::int64_t completed = 0;
  std::int64_t missed = 0;
  std::int64_t aborted = 0;
  std::int64_t preemptions = 0;
  std::int64_t detector_fires = 0;
  std::int64_t faults_detected = 0;
  bool stopped = false;
  Duration max_response;            ///< over kJobEnd events.
  Duration last_response;
};

/// Maintains only per-task counters: constant work per event, O(tasks)
/// memory for a run of any length — counters without the full-trace
/// cost.
class CountingSink final : public Sink {
 public:
  using Sink::record;
  void record(const TraceEvent& event) override;

  /// Forgets everything; keeps allocated capacity for reuse.
  void reset();

  /// Counters for one task (zeroes if the task never appeared).
  [[nodiscard]] const TaskCounters& counters(std::size_t task) const;
  /// One past the largest task id seen since the last reset().
  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  /// Total events of one kind, across tasks and taskless events.
  [[nodiscard]] std::int64_t total(EventKind kind) const {
    return kind_totals_[static_cast<std::size_t>(kind)];
  }

 private:
  std::vector<TaskCounters> tasks_;
  std::int64_t kind_totals_[kEventKindCount] = {};
};

}  // namespace rtft::trace
