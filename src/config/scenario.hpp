// Scenario files — the paper's measurement tooling (§5) includes a parser
// for "a file which describes the tasks in the system" that "builds and
// runs the tasks automatically". This module is that tool: a small INI
// dialect describing the task set, the treatment policy, the engine knobs
// and the injected faults.
//
//   # Figure 5 of the paper
//   [system]
//   policy = instant-stop            # see core::TreatmentPolicy names
//   horizon = 2000ms
//   quantizer = 10ms nearest         # resolution + none|nearest|up|down
//   stop-mode = task                 # task | job
//
//   [task tau1]
//   priority = 20
//   cost = 29ms
//   period = 200ms
//   deadline = 70ms
//   offset = 0ms                     # optional, default 0
//
//   [fault]                         # repeatable
//   task = tau1
//   job = 5
//   overrun = 40ms                   # negative = cost under-run
//
// Durations are written as a decimal number with a mandatory unit
// (ns, us, ms, s); "0" alone is accepted. The horizon, the quantizer
// resolution, the allowance granularity and every cost, period and
// deadline must be positive; latencies, the fire and switch costs and
// offsets must not be negative.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "core/ft_system.hpp"

namespace rtft::cfg {

/// Parse failure with file/line context in what().
class ParseError : public std::runtime_error {
 public:
  ParseError(std::string_view file, int line, std::string_view message);
  [[nodiscard]] int line() const { return line_; }

 private:
  int line_;
};

/// A parsed scenario: everything FaultTolerantSystem needs.
struct Scenario {
  core::FtSystemConfig config;
  core::FaultPlan faults;
};

/// Parses scenario text. Throws ParseError, naming the line and its key
/// or section, on malformed input and on every value the system would
/// refuse (a zero period or horizon, a negative latency, a fault on an
/// undeclared task, a task declared twice).
[[nodiscard]] Scenario parse_scenario(std::string_view text,
                                      std::string_view filename = "<string>");

/// Loads and parses a scenario file; std::runtime_error if unreadable.
[[nodiscard]] Scenario load_scenario(const std::string& path);

/// Canonical text for a scenario; parse_scenario(write_scenario(s)) is an
/// identity on the represented data.
[[nodiscard]] std::string write_scenario(const Scenario& scenario);

/// Parses "<decimal><unit>" (unit in ns/us/ms/s; bare "0" accepted).
/// Returns false on malformed input and on values outside the int64
/// nanosecond range (about ±9.2e9 s).
[[nodiscard]] bool parse_duration(std::string_view text, Duration& out);

/// Canonical rendering used by write_scenario.
[[nodiscard]] std::string duration_to_config_string(Duration d);

}  // namespace rtft::cfg
