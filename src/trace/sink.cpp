#include "trace/sink.hpp"

namespace rtft::trace {

// Out of line on purpose: the engine, its hot caller, reaches it through
// the Sink vtable anyway. Defined in the header, it was the only Sink
// body the engine's translation unit could see, so GCC inlined it
// speculatively at every `if (sink) sink->record(…)` site, which grew the
// engine's code by a quarter and slowed sink-free runs.
void CountingSink::record(const TraceEvent& event) {
  kind_totals_[static_cast<std::size_t>(event.kind)]++;
  if (event.task == kNoTask) return;
  const auto task = static_cast<std::size_t>(event.task);
  if (task >= tasks_.size()) tasks_.resize(task + 1);
  TaskCounters& c = tasks_[task];
  switch (event.kind) {
    case EventKind::kJobRelease: c.released++; break;
    case EventKind::kJobStart: c.started++; break;
    case EventKind::kJobEnd: {
      c.completed++;
      const Duration response = Duration::ns(event.detail);
      c.last_response = response;
      if (response > c.max_response) c.max_response = response;
      break;
    }
    case EventKind::kDeadlineMiss: c.missed++; break;
    case EventKind::kJobAborted: c.aborted++; break;
    case EventKind::kJobPreempted: c.preemptions++; break;
    case EventKind::kDetectorFire: c.detector_fires++; break;
    case EventKind::kFaultDetected: c.faults_detected++; break;
    case EventKind::kTaskStopped: c.stopped = true; break;
    default: break;  // resumed/timers/idle/etc. carry no counter.
  }
}

void CountingSink::reset() {
  tasks_.clear();
  for (std::int64_t& n : kind_totals_) n = 0;
}

const TaskCounters& CountingSink::counters(std::size_t task) const {
  static const TaskCounters kZero{};
  return task < tasks_.size() ? tasks_[task] : kZero;
}

}  // namespace rtft::trace
