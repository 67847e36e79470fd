#include "trace/recorder.hpp"

namespace rtft::trace {

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kJobRelease: return "release";
    case EventKind::kJobStart: return "start";
    case EventKind::kJobPreempted: return "preempted";
    case EventKind::kJobResumed: return "resumed";
    case EventKind::kJobEnd: return "end";
    case EventKind::kJobAborted: return "aborted";
    case EventKind::kDeadlineMiss: return "deadline-miss";
    case EventKind::kTaskStopped: return "task-stopped";
    case EventKind::kStopRequested: return "stop-requested";
    case EventKind::kTimerFire: return "timer-fire";
    case EventKind::kDetectorFire: return "detector-fire";
    case EventKind::kFaultDetected: return "fault-detected";
    case EventKind::kOverrunInjected: return "overrun-injected";
    case EventKind::kIdleStart: return "idle-start";
    case EventKind::kIdleEnd: return "idle-end";
  }
  return "unknown";
}

Recorder::Recorder(std::size_t reserve) { events_.reserve(reserve); }

void Recorder::record(const TraceEvent& event) { events_.push_back(event); }

}  // namespace rtft::trace
