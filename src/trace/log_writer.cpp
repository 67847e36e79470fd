#include "trace/log_writer.hpp"

#include <ostream>
#include <sstream>

#include "common/assert.hpp"
#include "common/strings.hpp"

namespace rtft::trace {
namespace {

std::string task_name(const sched::TaskSet& ts, std::uint32_t task) {
  if (task == kNoTask) return "-";
  RTFT_EXPECTS(task < ts.size(), "event references unknown task");
  return ts[task].name;
}

/// One CSV field (RFC 4180): quoted when it holds a comma, a quote or a
/// line break, with every quote doubled.
std::string csv_field(std::string_view text) {
  if (text.find_first_of(",\"\r\n") == std::string_view::npos) {
    return std::string(text);
  }
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void write_text_log(const Recorder& recorder, const sched::TaskSet& ts,
                    std::ostream& out) {
  for (const TraceEvent& e : recorder.events()) {
    out << pad_left(to_string(e.time), 12) << "  "
        << pad_right(std::string(to_string(e.kind)), 16) << " task="
        << pad_right(task_name(ts, e.task), 10);
    if (e.job != kNoJob) out << " job=" << e.job;
    if (e.detail != 0) out << " detail=" << e.detail;
    out << '\n';
  }
}

void write_csv(const Recorder& recorder, const sched::TaskSet& ts,
               std::ostream& out) {
  out << "time_ns,kind,task,job,detail\n";
  for (const TraceEvent& e : recorder.events()) {
    out << e.time.count() << ',' << to_string(e.kind) << ','
        << csv_field(task_name(ts, e.task)) << ',' << e.job << ','
        << e.detail << '\n';
  }
}

std::string text_log_string(const Recorder& recorder,
                            const sched::TaskSet& ts) {
  std::ostringstream out;
  write_text_log(recorder, ts, out);
  return out.str();
}

std::string csv_string(const Recorder& recorder, const sched::TaskSet& ts) {
  std::ostringstream out;
  write_csv(recorder, ts, out);
  return out.str();
}

}  // namespace rtft::trace
