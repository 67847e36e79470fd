#include "sweep/cli.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "common/assert.hpp"
#include "common/strings.hpp"
#include "core/treatment.hpp"
#include "sched/priority.hpp"
#include "sweep/export.hpp"
#include "sweep/progress.hpp"

namespace rtft::sweep::cli {

namespace {

/// Largest microsecond count whose Duration::us conversion cannot
/// overflow the nanosecond representation.
constexpr std::uint64_t kMaxUs = static_cast<std::uint64_t>(
    std::numeric_limits<std::int64_t>::max() / 1000);

/// Generated task sets take unique DM priorities from the RTSJ range.
constexpr std::uint64_t kMaxTasks =
    static_cast<std::uint64_t>(sched::kMaxRtPriority - sched::kMinRtPriority) +
    1;

[[noreturn]] void bad_value(const char* flag, std::string_view value,
                            const std::string& reason) {
  throw ArgError(std::string(flag) + " " + reason + " (got '" +
                 std::string(value) + "')");
}

/// Appends "--flag v1,v2,..." for a list-valued flag.
template <typename Range, typename Renderer>
void push_list_flag(std::vector<std::string>& argv, const char* flag,
                    const Range& values, Renderer&& render) {
  argv.emplace_back(flag);
  std::string joined;
  for (const auto& v : values) {
    if (!joined.empty()) joined += ',';
    render(joined, v);
  }
  argv.push_back(std::move(joined));
}

}  // namespace

std::uint64_t parse_u64(const char* flag, std::string_view value,
                        std::uint64_t min, std::uint64_t max) {
  std::int64_t parsed = 0;
  if (!parse_int64(value, parsed) || parsed < 0) {
    bad_value(flag, value,
              "expects an unsigned decimal integer within the 64-bit "
              "signed range");
  }
  const std::uint64_t v = static_cast<std::uint64_t>(parsed);
  if (v < min || v > max) {
    bad_value(flag, value,
              "must be in [" + std::to_string(min) + ", " +
                  std::to_string(max) + "]");
  }
  return v;
}

double parse_positive_double(const char* flag, std::string_view value) {
  double parsed = 0.0;
  if (!parse_double(value, parsed) || !std::isfinite(parsed) ||
      parsed <= 0.0) {
    bad_value(flag, value, "expects a finite number > 0");
  }
  return parsed;
}

ShardRequest parse_shard_request(std::string_view value) {
  const auto parts = split(value, '/');
  std::int64_t index = 0;
  std::int64_t count = 0;
  if (parts.size() != 2 || !parse_int64(parts[0], index) ||
      !parse_int64(parts[1], count) || index < 0 || count < 0) {
    bad_value("--shard", value,
              "expects I/N, two unsigned decimal integers within the "
              "64-bit signed range");
  }
  if (count == 0) bad_value("--shard", value, "shard count N must be >= 1");
  if (index >= count) {
    bad_value("--shard", value, "shard index I must be below the count N");
  }
  return {static_cast<std::uint64_t>(index),
          static_cast<std::uint64_t>(count)};
}

bool apply_sweep_flag(std::string_view arg,
                      const std::function<std::string()>& value,
                      SweepOptions& opts) {
  if (arg == "--scenarios") {
    opts.scenario_count =
        parse_u64("--scenarios", value(), 1,
                  static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max()));
  } else if (arg == "--workers") {
    opts.workers = static_cast<std::size_t>(
        parse_u64("--workers", value(), 0, kMaxWorkers));
  } else if (arg == "--seed") {
    opts.base_seed =
        parse_u64("--seed", value(), 0,
                  static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max()));
  } else if (arg == "--tasks") {
    const std::string v = value();  // keep alive: split returns views.
    opts.grid.task_counts.clear();
    for (const std::string_view p : split(v, ',')) {
      opts.grid.task_counts.push_back(
          static_cast<std::size_t>(parse_u64("--tasks", p, 1, kMaxTasks)));
    }
  } else if (arg == "--util") {
    const std::string v = value();
    opts.grid.utilizations.clear();
    for (const std::string_view p : split(v, ',')) {
      opts.grid.utilizations.push_back(parse_positive_double("--util", p));
    }
  } else if (arg == "--detector-cost-us") {
    const std::string v = value();
    opts.grid.detector_costs.clear();
    for (const std::string_view p : split(v, ',')) {
      opts.grid.detector_costs.push_back(Duration::us(static_cast<std::int64_t>(
          parse_u64("--detector-cost-us", p, 0, kMaxUs))));
    }
  } else if (arg == "--stop-latency-us") {
    const std::string v = value();
    opts.grid.stop_poll_latencies.clear();
    for (const std::string_view p : split(v, ',')) {
      opts.grid.stop_poll_latencies.push_back(Duration::us(
          static_cast<std::int64_t>(parse_u64("--stop-latency-us", p, 0,
                                              kMaxUs))));
    }
  } else if (arg == "--cores") {
    const std::string v = value();
    opts.grid.core_counts.clear();
    for (const std::string_view p : split(v, ',')) {
      opts.grid.core_counts.push_back(
          static_cast<std::size_t>(parse_u64("--cores", p, 1, 64)));
    }
  } else if (arg == "--quantum-us") {
    const std::string v = value();
    opts.grid.quantizer_resolutions.clear();
    for (const std::string_view p : split(v, ',')) {
      opts.grid.quantizer_resolutions.push_back(Duration::us(
          static_cast<std::int64_t>(parse_u64("--quantum-us", p, 1, kMaxUs))));
    }
  } else if (arg == "--partitioner") {
    const std::string v = value();
    try {
      opts.partitioner = partitioner_mode_from_string(v);
    } catch (const std::exception&) {
      bad_value("--partitioner", v,
                "expects 'both', 'first-fit' or 'fault-aware'");
    }
  } else if (arg == "--core-fault") {
    const std::string v = value();
    double fraction = 0.0;
    if (!parse_double(v, fraction) || !std::isfinite(fraction) ||
        fraction < 0.0 || fraction > 1.0) {
      bad_value("--core-fault", v,
                "expects a horizon fraction in [0, 1] (0 disables the "
                "fault)");
    }
    opts.core_fault_fraction = fraction;
  } else if (arg == "--policy") {
    const std::string v = value();
    try {
      opts.detector_policy = core::treatment_policy_from_string(v);
    } catch (const std::exception&) {
      bad_value("--policy", v, "names no known treatment policy");
    }
  } else if (arg == "--horizon-periods") {
    opts.horizon_periods = static_cast<std::int64_t>(
        parse_u64("--horizon-periods", value(), 1, kMaxHorizonPeriods));
  } else if (arg == "--full-traces") {
    opts.full_traces = true;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> worker_argv(const std::string& runner,
                                     const SweepOptions& opts,
                                     const ShardSpec& shard,
                                     const std::string& emit_path) {
  RTFT_EXPECTS(!runner.empty(), "worker argv needs a runner binary path");
  // Everything that defines the scenario population must survive the
  // trip through the runner's flags, or the worker computes a different
  // sweep and the merge rejects its shard. Fields the CLI cannot
  // express must therefore sit at their defaults.
  const SweepOptions defaults;
  RTFT_EXPECTS(opts.allowance_granularity == defaults.allowance_granularity,
               "the runner CLI cannot express a non-default allowance "
               "granularity");
  RTFT_EXPECTS(opts.grid.deadline_min_factor ==
                       defaults.grid.deadline_min_factor &&
                   opts.grid.deadline_max_factor ==
                       defaults.grid.deadline_max_factor,
               "the runner CLI cannot express non-default deadline factors");
  RTFT_EXPECTS(opts.grid.min_period == defaults.grid.min_period &&
                   opts.grid.max_period == defaults.grid.max_period,
               "the runner CLI cannot express a non-default period range");
  RTFT_EXPECTS(opts.base_seed <=
                   static_cast<std::uint64_t>(
                       std::numeric_limits<std::int64_t>::max()),
               "the runner CLI parses seeds as signed 64-bit integers");
  for (const Duration c : opts.grid.detector_costs) {
    RTFT_EXPECTS(c.count() % 1000 == 0,
                 "the runner CLI expresses detector costs in whole "
                 "microseconds");
  }
  for (const Duration l : opts.grid.stop_poll_latencies) {
    RTFT_EXPECTS(l.count() % 1000 == 0,
                 "the runner CLI expresses stop latencies in whole "
                 "microseconds");
  }
  for (const Duration q : opts.grid.quantizer_resolutions) {
    RTFT_EXPECTS(q.count() % 1000 == 0,
                 "the runner CLI expresses quantizer resolutions in whole "
                 "microseconds");
  }

  std::vector<std::string> argv;
  argv.reserve(32);
  argv.push_back(runner);
  argv.emplace_back("--scenarios");
  argv.push_back(std::to_string(opts.scenario_count));
  argv.emplace_back("--workers");
  argv.push_back(std::to_string(opts.workers));
  argv.emplace_back("--seed");
  argv.push_back(std::to_string(opts.base_seed));
  push_list_flag(argv, "--tasks", opts.grid.task_counts,
                 [](std::string& out, std::size_t n) {
                   out += std::to_string(n);
                 });
  push_list_flag(argv, "--util", opts.grid.utilizations,
                 [](std::string& out, double u) {
                   // %.17g: bit-exact through the worker's parse_double.
                   detail::append_double(out, u);
                 });
  push_list_flag(argv, "--detector-cost-us", opts.grid.detector_costs,
                 [](std::string& out, Duration c) {
                   out += std::to_string(c.count() / 1000);
                 });
  push_list_flag(argv, "--stop-latency-us", opts.grid.stop_poll_latencies,
                 [](std::string& out, Duration l) {
                   out += std::to_string(l.count() / 1000);
                 });
  push_list_flag(argv, "--cores", opts.grid.core_counts,
                 [](std::string& out, std::size_t m) {
                   out += std::to_string(m);
                 });
  push_list_flag(argv, "--quantum-us", opts.grid.quantizer_resolutions,
                 [](std::string& out, Duration q) {
                   out += std::to_string(q.count() / 1000);
                 });
  argv.emplace_back("--partitioner");
  argv.emplace_back(to_string(opts.partitioner));
  argv.emplace_back("--core-fault");
  {
    std::string fraction;
    detail::append_double(fraction, opts.core_fault_fraction);
    argv.push_back(std::move(fraction));
  }
  argv.emplace_back("--policy");
  argv.emplace_back(core::to_string(opts.detector_policy));
  argv.emplace_back("--horizon-periods");
  argv.push_back(std::to_string(opts.horizon_periods));
  if (opts.full_traces) argv.emplace_back("--full-traces");
  argv.emplace_back("--shard");
  argv.push_back(std::to_string(shard.index) + "/" +
                 std::to_string(shard.shards));
  argv.emplace_back("--emit-shard");
  argv.push_back(emit_path);
  argv.emplace_back("--progress");
  return argv;
}

std::function<void(std::uint64_t, std::uint64_t)> stderr_progress_printer() {
  struct State {
    bool have = false;
    std::uint64_t printed = 0;
  };
  auto state = std::make_shared<State>();
  const bool tty = ::isatty(::fileno(stderr)) != 0;
  return [state, tty](std::uint64_t done, std::uint64_t total) {
    const std::uint64_t step = total < 100 ? 1 : total / 100;
    if (state->have && done == state->printed) return;
    // Throttle forward motion to ~1% steps; the final value and any
    // backward jump (a coordinator aggregate that lost a worker's
    // in-flight attempt) always print.
    if (state->have && done > state->printed && done != total &&
        done < state->printed + step) {
      return;
    }
    state->have = true;
    state->printed = done;
    if (tty) {
      std::fprintf(stderr, "\r%llu/%llu scenarios (%3.0f%%)",
                   static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total),
                   100.0 * static_cast<double>(done) /
                       static_cast<double>(total == 0 ? 1 : total));
      if (done == total) std::fputc('\n', stderr);
    } else {
      const std::string line = progress_line({done, total});
      std::fwrite(line.data(), 1, line.size(), stderr);
    }
  };
}

}  // namespace rtft::sweep::cli
