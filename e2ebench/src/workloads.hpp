// The benchmark's workloads and the pieces its self-checks reuse.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "report.hpp"
#include "spans.hpp"
#include "sweep/sweep.hpp"

namespace e2e {

// ---------------------------------------------------------------------------
// Sweeps (sweep-exec, sweep-analysis).
// ---------------------------------------------------------------------------

[[nodiscard]] bool is_sweep_workload(const std::string& name);

/// The workload's grid and settings, seeded; scenario_count is the size
/// of one pass (a fixed multiple of the grid's cell count).
[[nodiscard]] rtft::sweep::SweepOptions sweep_options(
    const std::string& workload, std::uint64_t seed);

/// The merged fingerprint recorded for (workload grid, seed, pass size),
/// when this seed has one on record.
[[nodiscard]] std::optional<std::uint64_t> recorded_fingerprint(
    const std::string& workload, std::uint64_t seed);

/// Counters the traced replica accumulates across scenarios.
struct ReplicaCounters {
  std::uint64_t scenarios = 0;
  std::uint64_t engine_runs = 0;
  std::uint64_t engine_events = 0;
  std::uint64_t detector_fires = 0;
  std::uint64_t detector_faults = 0;
  std::uint64_t fa_attempts = 0;
  std::uint64_t fa_placed = 0;
  std::uint64_t fleet_runs = 0;
  std::uint64_t fleet_jobs = 0;
  std::uint64_t lost_jobs = 0;
};

/// Re-drives one sweep scenario through the library's public functions,
/// stage by stage, with a span around each call. Produces the verdict
/// sweep::ScenarioRunner produces for the same spec.
class TracedReplica {
 public:
  /// `opts` is borrowed and must outlive the replica.
  explicit TracedReplica(const rtft::sweep::SweepOptions& opts);

  [[nodiscard]] rtft::sweep::ScenarioVerdict run(
      const rtft::sweep::ScenarioSpec& spec, SpanLog& log);

  [[nodiscard]] const ReplicaCounters& counters() const { return counters_; }

 private:
  /// Re-arms the engine and registers `ts`; `faulty` overruns job 0.
  void arm(const rtft::sched::TaskSet& ts, rtft::Duration horizon,
           rtft::Duration stop_poll_latency,
           std::optional<rtft::sched::TaskId> faulty = {},
           rtft::Duration extra = rtft::Duration::zero());
  /// One traced engine run; returns the deadline misses it counted.
  std::int64_t run_engine(const char* stage, SpanLog& log,
                          std::int32_t parent, std::uint64_t item);
  void run_multicore(const rtft::sweep::ScenarioSpec& spec,
                     const rtft::sched::TaskSet& ts, rtft::Duration horizon,
                     rtft::sweep::ScenarioVerdict& v, SpanLog& log,
                     std::int32_t parent);

  const rtft::sweep::SweepOptions& opts_;
  rtft::rt::Engine engine_;
  rtft::trace::CountingSink counting_;
  std::vector<rtft::rt::TaskHandle> handles_;
  rtft::multicore::MultiEngine fleet_;
  rtft::multicore::FirstFitDecreasing first_fit_;
  rtft::multicore::FaultAware fault_aware_;
  ReplicaCounters counters_;
};

void run_sweep_workload(const RunConfig& cfg, Result& result);

// ---------------------------------------------------------------------------
// Admission (admission-mixed).
// ---------------------------------------------------------------------------

void run_admission_workload(const RunConfig& cfg, Result& result);

// ---------------------------------------------------------------------------
// Self-checks of the benchmark itself.
// ---------------------------------------------------------------------------

/// Returns 0 when every self-check passes.
[[nodiscard]] int run_selfchecks();

}  // namespace e2e
