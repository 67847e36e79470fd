// Partitioned multiprocessor demo — one random task set placed onto an
// M-core fleet by both shipped partitioners, then run through a
// mid-horizon core failure with backup fail-over (src/multicore/).
//
//   multicore_run [--tasks N] [--cores M] [--util U] [--seed S]
//                 [--horizon-periods K] [--fault-frac F]
//
// The demo prints, per strategy, the primary/backup placement and the
// per-task fail-over verdicts after killing the busiest core at
// F x horizon. The interesting comparison is the default one: first-fit
// reserves no backup capacity, so its fail-over may miss deadlines;
// fault-aware admits every backup by RTA against the worst post-failure
// load, so a placement it accepts must survive — the demo exits 1 if
// that guarantee is ever contradicted (CI runs it as a smoke test).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "multicore/multi_engine.hpp"
#include "multicore/partition.hpp"
#include "runtime/engine.hpp"
#include "sweep/generators.hpp"

namespace {

using namespace rtft;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--tasks N] [--cores M] [--util U] [--seed S]\n"
               "          [--horizon-periods K] [--fault-frac F]\n",
               argv0);
  std::exit(2);
}

[[noreturn]] void bad_value(const char* flag, const std::string& value,
                            const char* expects) {
  std::fprintf(stderr, "error: %s %s (got '%s')\n", flag, expects,
               value.c_str());
  std::exit(2);
}

std::int64_t parse_int(const char* flag, const std::string& value,
                       std::int64_t min, std::int64_t max) {
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || v < min || v > max) {
    bad_value(flag, value,
              ("must be an integer in [" + std::to_string(min) + ", " +
               std::to_string(max) + "]")
                  .c_str());
  }
  return static_cast<std::int64_t>(v);
}

double parse_fraction(const char* flag, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !(v >= 0.0) || !(v <= 1.0)) {
    bad_value(flag, value, "must be a fraction in [0, 1]");
  }
  return v;
}

const char* outcome_name(multicore::FailoverOutcome o) {
  switch (o) {
    case multicore::FailoverOutcome::kSurvived:
      return "survived";
    case multicore::FailoverOutcome::kMissedDuringFailover:
      return "missed-during-failover";
    case multicore::FailoverOutcome::kInfeasiblePlacement:
      return "infeasible-placement";
  }
  return "?";
}

std::string core_name(std::size_t core) {
  return core == multicore::kNoCore ? "-" : std::to_string(core);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t tasks = 8;
  std::size_t cores = 4;
  double util = 2.2;
  std::uint64_t seed = 1;
  std::int64_t horizon_periods = 20;
  double fault_frac = 0.5;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--tasks") {
      tasks = static_cast<std::size_t>(parse_int("--tasks", value(), 1, 64));
    } else if (arg == "--cores") {
      cores = static_cast<std::size_t>(parse_int("--cores", value(), 1, 64));
    } else if (arg == "--util") {
      const std::string v = value();
      char* end = nullptr;
      util = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(util > 0.0)) {
        bad_value("--util", v, "must be a total utilization > 0");
      }
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(
          parse_int("--seed", value(), 0,
                    std::numeric_limits<std::int64_t>::max()));
    } else if (arg == "--horizon-periods") {
      horizon_periods = parse_int("--horizon-periods", value(), 1, 100000);
    } else if (arg == "--fault-frac") {
      fault_frac = parse_fraction("--fault-frac", value());
    } else {
      usage(argv[0]);
    }
  }

  RandomTaskSetSpec spec;
  spec.tasks = tasks;
  spec.total_utilization = util;
  const sched::TaskSet ts = sweep::make_seeded_task_set(seed, spec);

  Duration max_period = Duration::zero();
  for (sched::TaskId id = 0; id < ts.size(); ++id) {
    max_period = std::max(max_period, ts[id].period);
  }
  const Duration horizon = max_period * horizon_periods;

  std::printf("task set: %zu tasks, total utilization %.3f, seed %llu\n",
              ts.size(), util, static_cast<unsigned long long>(seed));
  for (sched::TaskId id = 0; id < ts.size(); ++id) {
    std::printf("  %-4s C=%-8.3fms T=%-8.3fms D=%-8.3fms u=%.3f\n",
                ts[id].name.c_str(), ts[id].cost.to_ms(),
                ts[id].period.to_ms(), ts[id].deadline.to_ms(),
                static_cast<double>(ts[id].cost.count()) /
                    static_cast<double>(ts[id].period.count()));
  }
  std::printf("fleet: %zu cores, horizon %.1fms, fault at %.0f%% of it\n",
              cores, horizon.to_ms(), 100.0 * fault_frac);

  rt::EngineOptions eopts;
  eopts.horizon = Instant::epoch() + horizon;

  const Duration fault_after = Duration::ns(static_cast<std::int64_t>(
      fault_frac * static_cast<double>(horizon.count())));

  const multicore::FirstFitDecreasing first_fit;
  const multicore::FaultAware fault_aware;
  multicore::MultiEngine fleet;
  bool fault_aware_contradicted = false;

  for (const multicore::Partitioner* strategy :
       {static_cast<const multicore::Partitioner*>(&first_fit),
        static_cast<const multicore::Partitioner*>(&fault_aware)}) {
    std::printf("\n=== %s ===\n", strategy->name());
    const multicore::Placement placement = strategy->place(ts, cores);
    if (!placement.feasible) {
      std::printf("placement infeasible: %s\n", placement.reason.c_str());
      continue;
    }
    for (sched::TaskId id = 0; id < ts.size(); ++id) {
      std::printf("  %-4s primary core %s, backup core %s\n",
                  ts[id].name.c_str(),
                  core_name(placement.primary[id]).c_str(),
                  core_name(placement.backup[id]).c_str());
    }

    fleet.reset(cores, eopts);
    fleet.add_placed(ts, placement);
    multicore::CoreFaultPlan fault;
    if (fault_after.is_positive() && fault_after < horizon) {
      const std::vector<double> load =
          multicore::primary_utilization(ts, placement, cores);
      std::size_t victim = 0;
      for (std::size_t c = 1; c < load.size(); ++c) {
        if (load[c] > load[victim]) victim = c;
      }
      fault.core = victim;
      fault.at = Instant::epoch() + fault_after;
      std::printf("killing core %zu (primary load %.3f) at %.1fms\n", victim,
                  load[victim], fault_after.to_ms());
    }
    const multicore::MultiRunReport report = fleet.run_with_fault(fault);
    for (const multicore::TaskFailoverReport& t : report.tasks) {
      std::printf("  %-4s %-22s misses=%lld lost=%lld%s\n",
                  ts[t.task].name.c_str(), outcome_name(t.outcome),
                  static_cast<long long>(t.misses),
                  static_cast<long long>(t.lost_jobs),
                  t.failed_over ? "  (failed over)" : "");
    }
    std::printf("%s: %s (%lld task(s) not clean, %lld job(s) lost)\n",
                strategy->name(),
                report.failover_clean ? "failover clean" : "NOT clean",
                static_cast<long long>(report.missed_tasks),
                static_cast<long long>(report.total_lost_jobs));
    if (strategy == &fault_aware && !report.failover_clean) {
      fault_aware_contradicted = true;
    }
  }

  // Fault-aware placements are admitted against the worst post-failure
  // load, so an unclean fault-aware run contradicts the subsystem's
  // central guarantee — fail loudly so CI notices.
  if (fault_aware_contradicted) {
    std::fprintf(stderr,
                 "error: fault-aware placement missed deadlines during "
                 "fail-over\n");
    return 1;
  }
  return 0;
}
