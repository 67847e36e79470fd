// Log/CSV serialization of a recorded run (paper §5: the buffered
// measurements are "written in a log file which can then be interpreted
// by our tool of time series chart").
#pragma once

#include <iosfwd>
#include <string>

#include "sched/task.hpp"
#include "trace/recorder.hpp"

namespace rtft::trace {

/// One line per event: "<date> <kind> task=<name> job=<j> detail=<d>".
void write_text_log(const Recorder& recorder, const sched::TaskSet& ts,
                    std::ostream& out);

/// CSV with header: time_ns,kind,task,job,detail. A task name holding a
/// comma, a quote or a line break is quoted (RFC 4180).
void write_csv(const Recorder& recorder, const sched::TaskSet& ts,
               std::ostream& out);

/// Convenience wrappers returning strings (used by tests and examples).
[[nodiscard]] std::string text_log_string(const Recorder& recorder,
                                          const sched::TaskSet& ts);
[[nodiscard]] std::string csv_string(const Recorder& recorder,
                                     const sched::TaskSet& ts);

}  // namespace rtft::trace
