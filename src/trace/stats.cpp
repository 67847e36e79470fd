#include "trace/stats.hpp"

#include <sstream>

#include "common/strings.hpp"

namespace rtft::trace {

SystemStatsSummary compute_stats(const SystemTimeline& tl) {
  SystemStatsSummary out;
  out.window = tl.end - tl.start;
  for (const ExecutionSpan& s : tl.idle) out.idle_time += s.end - s.begin;
  if (out.window.is_positive()) {
    out.cpu_utilization =
        1.0 - static_cast<double>(out.idle_time.count()) /
                  static_cast<double>(out.window.count());
  }

  for (const TaskTimeline& task : tl.tasks) {
    TaskStatsSummary s;
    s.name = task.name;
    s.released = static_cast<std::int64_t>(task.jobs.size());
    s.detector_fires = static_cast<std::int64_t>(task.detector_fires.size());
    s.faults_detected =
        static_cast<std::int64_t>(task.fault_detections.size());
    s.stopped = task.stopped_at.has_value();
    Duration total_response;
    for (const JobRecord& j : task.jobs) {
      if (j.missed) s.missed++;
      if (j.aborted_at) s.aborted++;
      for (const ExecutionSpan& span : j.spans) {
        s.cpu_time += span.end - span.begin;
      }
      if (const auto r = j.response()) {
        if (s.completed == 0 || *r < s.min_response) s.min_response = *r;
        if (*r > s.max_response) s.max_response = *r;
        total_response += *r;
        s.completed++;
      }
    }
    if (s.completed > 0) s.mean_response = total_response / s.completed;
    out.total_misses += s.missed;
    out.tasks.push_back(std::move(s));
  }
  return out;
}

std::string SystemStatsSummary::table() const {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"task", "released", "completed", "missed", "aborted",
                  "resp min", "resp mean", "resp max", "cpu", "state"});
  for (const TaskStatsSummary& t : tasks) {
    rows.push_back({t.name, std::to_string(t.released),
                    std::to_string(t.completed), std::to_string(t.missed),
                    std::to_string(t.aborted),
                    t.completed ? to_string(t.min_response) : "-",
                    t.completed ? to_string(t.mean_response) : "-",
                    t.completed ? to_string(t.max_response) : "-",
                    to_string(t.cpu_time),
                    t.stopped ? "stopped" : "alive"});
  }
  std::ostringstream out;
  out << format_table(rows) << "window " << to_string(window) << ", idle "
      << to_string(idle_time) << ", cpu "
      << format_fixed(cpu_utilization * 100.0, 1) << "%, misses "
      << total_misses << '\n';
  return out.str();
}

}  // namespace rtft::trace
