#include "config/scenario.hpp"

#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "common/file.hpp"
#include "common/strings.hpp"

namespace rtft::cfg {
namespace {

struct Cursor {
  std::string_view file;
  int line = 0;
};

[[noreturn]] void fail(const Cursor& cur, std::string_view message) {
  throw ParseError(cur.file, cur.line, message);
}

/// The values a duration key accepts beyond parsing.
enum class Sign { kAny, kNonNegative, kPositive };

Duration require_duration(const Cursor& cur, std::string_view key,
                          std::string_view value, Sign sign = Sign::kAny) {
  Duration d;
  if (!parse_duration(value, d)) {
    fail(cur, std::string(key) + ": cannot parse duration '" +
                  std::string(value) +
                  "' (expected <number><ns|us|ms|s> within ±9.2e9s)");
  }
  if (sign == Sign::kPositive && !d.is_positive()) {
    fail(cur, std::string(key) + ": must be positive, got '" +
                  std::string(value) + "'");
  }
  if (sign == Sign::kNonNegative && d.is_negative()) {
    fail(cur, std::string(key) + ": must be non-negative, got '" +
                  std::string(value) + "'");
  }
  return d;
}

std::int64_t require_int(
    const Cursor& cur, std::string_view key, std::string_view value,
    std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  std::int64_t v = 0;
  if (!parse_int64(value, v)) {
    fail(cur, std::string(key) + ": cannot parse integer '" +
                  std::string(value) + "'");
  }
  if (v < lo || v > hi) {
    fail(cur, std::string(key) + ": out of range [" + std::to_string(lo) +
                  ", " + std::to_string(hi) + "], got '" +
                  std::string(value) + "'");
  }
  return v;
}

rt::Rounding rounding_from(const Cursor& cur, std::string_view word) {
  if (word == "none") return rt::Rounding::kNone;
  if (word == "nearest") return rt::Rounding::kNearest;
  if (word == "up") return rt::Rounding::kUp;
  if (word == "down") return rt::Rounding::kDown;
  fail(cur, "unknown rounding mode '" + std::string(word) +
                "' (expected none|nearest|up|down)");
}

std::string_view rounding_name(rt::Rounding mode) {
  switch (mode) {
    case rt::Rounding::kNone: return "none";
    case rt::Rounding::kNearest: return "nearest";
    case rt::Rounding::kUp: return "up";
    case rt::Rounding::kDown: return "down";
  }
  return "none";
}

/// Partially-built [task ...] section.
struct PendingTask {
  sched::TaskParams params;
  bool has_cost = false;
  bool has_period = false;
  bool has_deadline = false;
  bool has_priority = false;
  int declared_line = 0;
};

/// Partially-built [fault] section.
struct PendingFault {
  std::string task;
  int task_line = 0;
  std::int64_t job = -1;
  Duration overrun;
  bool has_overrun = false;
  int declared_line = 0;
};

}  // namespace

ParseError::ParseError(std::string_view file, int line,
                       std::string_view message)
    : std::runtime_error(std::string(file) + ":" + std::to_string(line) +
                         ": " + std::string(message)),
      line_(line) {}

bool parse_duration(std::string_view text, Duration& out) {
  const std::string_view s = trim(text);
  if (s.empty()) return false;
  if (s == "0") {
    out = Duration::zero();
    return true;
  }
  // Split numeric prefix from unit suffix.
  std::size_t unit_start = s.size();
  while (unit_start > 0 &&
         std::isalpha(static_cast<unsigned char>(s[unit_start - 1]))) {
    --unit_start;
  }
  const std::string_view number = s.substr(0, unit_start);
  const std::string_view unit = s.substr(unit_start);
  if (number != trim(number)) return false;  // no space before the unit
  double value = 0.0;
  if (!parse_double(number, value)) return false;
  double scale = 0.0;
  if (unit == "ns") {
    scale = 1.0;
  } else if (unit == "us") {
    scale = 1e3;
  } else if (unit == "ms") {
    scale = 1e6;
  } else if (unit == "s") {
    scale = 1e9;
  } else {
    return false;
  }
  // Past int64 nanoseconds (or NaN) there is no Duration to return.
  const double ns = value * scale;
  if (!(std::fabs(ns) < 0x1p63)) return false;
  out = Duration::ns(static_cast<std::int64_t>(std::llround(ns)));
  return true;
}

std::string duration_to_config_string(Duration d) {
  const std::int64_t ns = d.count();
  if (ns == 0) return "0";
  if (ns % 1'000'000'000 == 0) return std::to_string(ns / 1'000'000'000) + "s";
  if (ns % 1'000'000 == 0) return std::to_string(ns / 1'000'000) + "ms";
  if (ns % 1'000 == 0) return std::to_string(ns / 1'000) + "us";
  return std::to_string(ns) + "ns";
}

Scenario parse_scenario(std::string_view text, std::string_view filename) {
  Scenario scenario;
  Cursor cur{filename, 0};

  enum class Section { kNone, kSystem, kTask, kFault };
  Section section = Section::kNone;
  PendingTask task;
  PendingFault fault;
  std::vector<PendingFault> faults;  // checked once every task is declared

  const auto flush_task = [&] {
    if (section != Section::kTask) return;
    Cursor at{filename, task.declared_line};
    if (!task.has_priority) fail(at, "task '" + task.params.name + "': missing priority");
    if (!task.has_cost) fail(at, "task '" + task.params.name + "': missing cost");
    if (!task.has_period) fail(at, "task '" + task.params.name + "': missing period");
    if (!task.has_deadline) {
      task.params.deadline = task.params.period;  // implicit deadline
    }
    if (scenario.config.tasks.contains(task.params.name)) {
      fail(at, "task '" + task.params.name + "': declared twice");
    }
    scenario.config.tasks.add(task.params);
  };
  const auto flush_fault = [&] {
    if (section != Section::kFault) return;
    Cursor at{filename, fault.declared_line};
    if (fault.task.empty()) fail(at, "fault: missing task");
    if (fault.job < 0) fail(at, "fault: missing job");
    if (!fault.has_overrun) fail(at, "fault: missing overrun");
    scenario.faults.add_overrun(fault.task, fault.job, fault.overrun);
    faults.push_back(fault);
  };
  const auto flush = [&] {
    flush_task();
    flush_fault();
  };

  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view raw = text.substr(pos, eol - pos);
    pos = eol + 1;
    cur.line++;
    // Strip comments and whitespace.
    if (const std::size_t hash = raw.find('#'); hash != std::string_view::npos) {
      raw = raw.substr(0, hash);
    }
    const std::string_view line = trim(raw);
    if (line.empty()) {
      if (pos > text.size()) break;
      continue;
    }

    if (line.front() == '[') {
      if (line.back() != ']') fail(cur, "unterminated section header");
      flush();
      const std::string_view header = trim(line.substr(1, line.size() - 2));
      if (header == "system") {
        section = Section::kSystem;
      } else if (header == "fault") {
        section = Section::kFault;
        fault = PendingFault{};
        fault.declared_line = cur.line;
      } else if (header.substr(0, 5) == "task " ||
                 header.substr(0, 5) == "task\t") {
        section = Section::kTask;
        task = PendingTask{};
        task.declared_line = cur.line;
        task.params.name = std::string(trim(header.substr(5)));
        if (task.params.name.empty()) fail(cur, "task section needs a name");
      } else {
        fail(cur, "unknown section '" + std::string(header) + "'");
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail(cur, "expected 'key = value', got '" + std::string(line) + "'");
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) fail(cur, "empty key or value");

    switch (section) {
      case Section::kNone:
        fail(cur, "'" + std::string(key) + "' outside any section");
      case Section::kSystem: {
        auto& cfg = scenario.config;
        if (key == "policy") {
          try {
            cfg.policy = core::treatment_policy_from_string(value);
          } catch (const ContractViolation&) {
            fail(cur, "unknown policy '" + std::string(value) + "'");
          }
        } else if (key == "horizon") {
          cfg.horizon = require_duration(cur, key, value, Sign::kPositive);
        } else if (key == "quantizer") {
          // "<resolution> <mode>"
          const std::size_t space = value.find(' ');
          if (space == std::string_view::npos) {
            fail(cur, "quantizer: expected '<resolution> <mode>'");
          }
          cfg.detector.quantizer.resolution = require_duration(
              cur, key, trim(value.substr(0, space)), Sign::kPositive);
          cfg.detector.quantizer.mode =
              rounding_from(cur, trim(value.substr(space + 1)));
        } else if (key == "detector-fire-cost") {
          cfg.detector.fire_cost =
              require_duration(cur, key, value, Sign::kNonNegative);
        } else if (key == "stop-mode") {
          if (value == "task") {
            cfg.stop_mode = rt::StopMode::kTask;
          } else if (value == "job") {
            cfg.stop_mode = rt::StopMode::kJob;
          } else {
            fail(cur, "stop-mode: expected task|job");
          }
        } else if (key == "stop-poll-latency") {
          cfg.stop_poll_latency =
              require_duration(cur, key, value, Sign::kNonNegative);
        } else if (key == "context-switch-cost") {
          cfg.context_switch_cost =
              require_duration(cur, key, value, Sign::kNonNegative);
        } else if (key == "allowance-granularity") {
          cfg.allowance.granularity =
              require_duration(cur, key, value, Sign::kPositive);
        } else if (key == "run-infeasible") {
          if (value == "true") {
            cfg.run_infeasible = true;
          } else if (value == "false") {
            cfg.run_infeasible = false;
          } else {
            fail(cur, "run-infeasible: expected true|false");
          }
        } else {
          fail(cur, "unknown [system] key '" + std::string(key) + "'");
        }
        break;
      }
      case Section::kTask: {
        if (key == "priority") {
          task.params.priority = static_cast<sched::Priority>(require_int(
              cur, key, value, std::numeric_limits<sched::Priority>::min(),
              std::numeric_limits<sched::Priority>::max()));
          task.has_priority = true;
        } else if (key == "cost") {
          task.params.cost = require_duration(cur, key, value, Sign::kPositive);
          task.has_cost = true;
        } else if (key == "period") {
          task.params.period =
              require_duration(cur, key, value, Sign::kPositive);
          task.has_period = true;
        } else if (key == "deadline") {
          task.params.deadline =
              require_duration(cur, key, value, Sign::kPositive);
          task.has_deadline = true;
        } else if (key == "offset") {
          task.params.offset =
              require_duration(cur, key, value, Sign::kNonNegative);
        } else {
          fail(cur, "unknown [task] key '" + std::string(key) + "'");
        }
        break;
      }
      case Section::kFault: {
        if (key == "task") {
          fault.task = std::string(value);
          fault.task_line = cur.line;
        } else if (key == "job") {
          fault.job = require_int(cur, key, value, 0);
        } else if (key == "overrun") {
          fault.overrun = require_duration(cur, key, value);
          fault.has_overrun = true;
        } else {
          fail(cur, "unknown [fault] key '" + std::string(key) + "'");
        }
        break;
      }
    }
    if (pos > text.size()) break;
  }
  flush();

  if (scenario.config.tasks.empty()) {
    fail(Cursor{filename, cur.line}, "scenario declares no tasks");
  }
  for (const PendingFault& f : faults) {
    if (!scenario.config.tasks.contains(f.task)) {
      fail(Cursor{filename, f.task_line},
           "task: '" + f.task + "' names no declared task");
    }
  }
  return scenario;
}

Scenario load_scenario(const std::string& path) {
  return parse_scenario(read_file(path), path);
}

std::string write_scenario(const Scenario& scenario) {
  std::ostringstream out;
  const auto& cfg = scenario.config;
  out << "[system]\n";
  out << "policy = " << core::to_string(cfg.policy) << '\n';
  out << "horizon = " << duration_to_config_string(cfg.horizon) << '\n';
  out << "quantizer = "
      << duration_to_config_string(cfg.detector.quantizer.resolution) << ' '
      << rounding_name(cfg.detector.quantizer.mode) << '\n';
  if (!cfg.detector.fire_cost.is_zero()) {
    out << "detector-fire-cost = "
        << duration_to_config_string(cfg.detector.fire_cost) << '\n';
  }
  out << "stop-mode = "
      << (cfg.stop_mode == rt::StopMode::kTask ? "task" : "job") << '\n';
  if (!cfg.stop_poll_latency.is_zero()) {
    out << "stop-poll-latency = "
        << duration_to_config_string(cfg.stop_poll_latency) << '\n';
  }
  if (!cfg.context_switch_cost.is_zero()) {
    out << "context-switch-cost = "
        << duration_to_config_string(cfg.context_switch_cost) << '\n';
  }
  if (cfg.allowance.granularity != sched::AllowanceOptions{}.granularity) {
    out << "allowance-granularity = "
        << duration_to_config_string(cfg.allowance.granularity) << '\n';
  }
  if (cfg.run_infeasible) out << "run-infeasible = true\n";

  for (const sched::TaskParams& t : cfg.tasks) {
    out << "\n[task " << t.name << "]\n";
    out << "priority = " << t.priority << '\n';
    out << "cost = " << duration_to_config_string(t.cost) << '\n';
    out << "period = " << duration_to_config_string(t.period) << '\n';
    out << "deadline = " << duration_to_config_string(t.deadline) << '\n';
    if (!t.offset.is_zero()) {
      out << "offset = " << duration_to_config_string(t.offset) << '\n';
    }
  }
  for (const core::FaultSpec& f : scenario.faults.faults()) {
    out << "\n[fault]\n";
    out << "task = " << f.task << '\n';
    out << "job = " << f.job_index << '\n';
    out << "overrun = " << duration_to_config_string(f.extra_cost) << '\n';
  }
  return out.str();
}

}  // namespace rtft::cfg
