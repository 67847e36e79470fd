// A per-core fleet of rt::Engine instances driven from one global
// clock, with task-level primary/backup placement and mid-run core
// fail-over (ROADMAP item 4(b); Persya & Nair in PAPERS.md).
//
// Partitioned multiprocessor scheduling keeps every core a plain
// fixed-priority uniprocessor — exactly what rt::Engine models — so the
// fleet is M pooled engines stepped in lockstep: run_until(t) advances
// every live core to the same global instant (optionally in fixed
// sync quanta, proving the segmentation invariance the single-core
// engine already guarantees). Cores never exchange events; the shared
// state is the clock, the horizon and the fail-over protocol:
//
//   fail_core(c) at global time T_f
//     * core c freezes: it is never stepped again, so jobs pending
//       there are *lost* (not missed — their deadlines are no longer
//       observed by anyone) and future releases never happen.
//     * every task whose primary is c has its backup replica activated
//       on its backup core: a fresh periodic task with identical
//       parameters whose first release is the primary's next release
//       date strictly after T_f (a release exactly at T_f already
//       happened on the dying core and is lost with it). Passive
//       backups in the Persya & Nair sense: they consume no CPU until
//       the failure.
//
// The per-task verdict family this opens: kSurvived (no deadline
// missed on either replica), kMissedDuringFailover (the backup core
// could not absorb the load — first-fit placements demonstrably do
// this), kInfeasiblePlacement (no backup core was assigned at all).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "multicore/partition.hpp"
#include "runtime/engine.hpp"

namespace rtft::multicore {

/// Terminal fail-over verdict for one task.
enum class FailoverOutcome : std::uint8_t {
  kSurvived,             ///< zero deadline misses, primary and backup.
  kMissedDuringFailover, ///< at least one miss on either replica.
  kInfeasiblePlacement,  ///< the task had no backup core to fail to.
};

/// Per-task fail-over accounting.
struct TaskFailoverReport {
  sched::TaskId task = 0;
  std::size_t primary_core = kNoCore;
  std::size_t backup_core = kNoCore;
  bool failed_over = false;      ///< its primary core was the one killed.
  /// Jobs released on the primary but still pending when it died.
  /// Unrecoverable by definition — counted separately from misses.
  std::int64_t lost_jobs = 0;
  std::int64_t misses = 0;       ///< primary (before death) + backup.
  FailoverOutcome outcome = FailoverOutcome::kSurvived;
};

/// Kills `core` when the global clock reaches `at`. kNoCore = no fault.
struct CoreFaultPlan {
  std::size_t core = kNoCore;
  Instant at;
};

/// Fleet-wide outcome of a placed run (with or without a fault).
struct MultiRunReport {
  bool placement_feasible = false;
  std::size_t cores = 0;
  std::size_t failed_core = kNoCore;  ///< kNoCore when no fault fired.
  std::vector<TaskFailoverReport> tasks;  ///< TaskId order.
  std::int64_t total_misses = 0;
  std::int64_t total_lost_jobs = 0;
  /// Count of tasks whose outcome is not kSurvived.
  std::int64_t missed_tasks = 0;
  /// No misses anywhere and every fail-over had a backup to land on.
  bool failover_clean = false;
};

/// M pooled per-core engines behind one clock. reset() re-arms the
/// whole fleet without deallocating engines, so a sweep drives
/// thousands of multicore scenarios through one MultiEngine.
class MultiEngine {
 public:
  MultiEngine() = default;

  /// Re-arms the fleet: `cores` engines (reusing pooled ones), each
  /// reset with `base` (horizon, latencies, sink — applied to every
  /// core identically; a borrowed sink must outlive the fleet). A
  /// positive `sync_quantum` makes run_until() advance the fleet in
  /// global lockstep steps of that size instead of one segment — the
  /// observable behaviour is identical (the engines are
  /// run_until-segmentation-invariant); the knob exists for the
  /// equivalence suite.
  void reset(std::size_t cores, const rt::EngineOptions& base,
             Duration sync_quantum = Duration::zero());

  /// Pre-sizes every pooled engine (see Engine::reserve).
  void reserve(std::size_t cores, std::size_t tasks, std::size_t events);

  [[nodiscard]] std::size_t cores() const { return cores_; }
  [[nodiscard]] rt::Engine& core(std::size_t i);
  [[nodiscard]] bool core_alive(std::size_t i) const;
  [[nodiscard]] Instant now() const { return now_; }
  [[nodiscard]] Instant horizon() const { return horizon_; }

  /// Registers every task of `ts` on its placement cores and remembers
  /// the binding for fail-over. `costs` (when non-empty) supplies one
  /// CostSpec per TaskId; tasks without a primary (infeasible
  /// placement rows) are recorded but not run.
  void add_placed(const sched::TaskSet& ts, const Placement& placement,
                  const std::vector<rt::CostSpec>& costs = {});

  /// Low-level escape hatch: registers one task on one core without
  /// fail-over bookkeeping (the M=1 equivalence suite drives cores
  /// directly through core(i)).
  rt::TaskHandle add_task(std::size_t core, const sched::TaskParams& params,
                          rt::CostSpec cost = {});

  /// Advances every live core to `stop_at` (inclusive, <= horizon),
  /// in lockstep sync quanta when configured.
  void run_until(Instant stop_at);
  /// Advances every live core to the horizon.
  void run();

  /// Kills `core` at the current global instant: freezes it and
  /// activates the backup replicas of its placed tasks (see header
  /// comment for the exact release-phase rule).
  void fail_core(std::size_t core);

  /// Convenience: run to the fault instant, fail the core, run to the
  /// horizon, report. With plan.core == kNoCore (or a fault dated at
  /// or past the horizon) this is a fault-free run.
  MultiRunReport run_with_fault(const CoreFaultPlan& plan);

  /// The per-task verdicts for the current run (valid after run()).
  [[nodiscard]] MultiRunReport report() const;

 private:
  struct Binding {
    sched::TaskParams params;
    rt::CostSpec cost;
    std::size_t primary_core = kNoCore;
    std::size_t backup_core = kNoCore;
    rt::TaskHandle primary_handle = 0;
    rt::TaskHandle backup_handle = 0;
    bool placed = false;       ///< primary registered on an engine.
    bool failed_over = false;  ///< backup replica activated.
    std::int64_t lost_jobs = 0;
    std::int64_t primary_misses_at_death = 0;
  };

  std::vector<std::unique_ptr<rt::Engine>> engines_;  ///< pooled.
  std::vector<bool> alive_;
  std::vector<Binding> bindings_;  ///< TaskId order.
  std::size_t cores_ = 0;
  std::size_t failed_core_ = kNoCore;
  bool placement_feasible_ = false;
  Instant now_;
  Instant horizon_;
  Duration sync_quantum_;
};

}  // namespace rtft::multicore
