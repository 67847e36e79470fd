// Worst-case response time (WCRT) analysis for fixed-priority preemptive
// uniprocessor scheduling — the paper's §2.2 / Figure 2 algorithm.
//
// The general algorithm (Lehoczky 1990) iterates over the jobs of the
// level-i busy period: job q's completion R(q) is the least fixed point of
//
//   R = (q+1)·Ci + Σ_{j ∈ HP(i)} ceil(R / Tj) · Cj
//
// its response is R(q) − q·Ti, and iteration stops at the first q with
// R(q) <= (q+1)·Ti (that job no longer pushes work onto the next one).
// The WCRT is the maximum response observed. When Di <= Ti this reduces
// to the classic Joseph & Pandya single-job fixed point (q = 0).
//
// Every analysis in rtft runs on one routine, busy_period(), over a
// PriorityView: the task set flattened once into priority order, so a
// search that probes one set dozens of times never copies it, re-sorts
// interferers or allocates. Two things keep that routine cheap without
// changing any result:
//
//   * The deadline cap. A feasibility probe only asks whether every job
//     meets its deadline. Iterates climb monotonically to the fixed
//     point, so once job q's iterate passes q·Ti + Di that job misses for
//     sure and the probe stops, instead of running the whole (possibly
//     hyperperiod-long) busy period of a task that has already failed.
//   * The deferred level-load test. A busy period whose level load
//     Σ Cj/Tj (task i included) exceeds 1 never ends, and is reported
//     unbounded. The exact 128-bit test of that load runs at the first
//     iterate past (q+1)·Ti instead of before every analysis: a job-0
//     fixed point R0 <= Ti is also a fixed point of the level's demand
//     Σ ceil(t/Tj)·Cj >= t·load, which has none when the load exceeds 1.
//     A busy period that closes without passing (q+1)·Ti therefore had a
//     load of at most 1, and feasible sets never pay for the test.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sched/task.hpp"

namespace rtft::sched {

/// Guard rails for the iterative analysis. Divergent systems (load > 1
/// among interferers) are detected exactly; anything else that runs away
/// is cut off by these caps.
struct RtaOptions {
  /// Maximum number of jobs examined in the level-i busy period.
  std::int64_t max_jobs = 1 << 20;
  /// Maximum total fixed-point iterations across all jobs.
  std::int64_t max_iterations = 1 << 26;
  /// Record the per-job responses (Table 1 / Figure 1 reproduction).
  bool record_jobs = false;
  /// Cap on the number of recorded jobs when record_jobs is set.
  std::size_t max_recorded_jobs = 4096;
};

/// Response of one job of the analyzed task within the level-i busy
/// period started at the critical instant.
struct JobResponse {
  std::int64_t index = 0;    ///< q — 0-based job index.
  Duration completion;       ///< R(q), from the critical instant.
  Duration response;         ///< R(q) − q·Ti.
};

/// Why busy_period() stopped.
enum class RtaStop : std::uint8_t {
  kClosed,     ///< the busy period closed: the result is bounded.
  kMiss,       ///< the deadline cap: job `jobs_examined` certainly misses.
  kOverload,   ///< the level load exceeds 1: the busy period never ends.
  kGuardRail,  ///< max_jobs, max_iterations, or an overflow no cap dates.
};

/// Outcome of the analysis of one task.
struct RtaResult {
  /// False when the busy period provably never ends (interfering load
  /// > 1) or a guard rail was hit; `wcrt` is then meaningless.
  bool bounded = false;
  Duration wcrt;             ///< max over jobs of R(q) − q·Ti.
  std::int64_t worst_job = 0;///< q achieving the maximum.
  std::int64_t jobs_examined = 0;
  /// R(q) of the last job examined; when bounded, the end of the level-i
  /// busy period started at the critical instant.
  Duration last_completion;
  RtaStop stop = RtaStop::kGuardRail;  ///< kClosed iff bounded.
  std::vector<JobResponse> jobs;  ///< filled when RtaOptions::record_jobs.
};

/// Extra cost an analysis adds on top of a set's own costs: `all` on
/// every task (the §4.2 equitable probe), plus `one` on the task at view
/// position `pos` (the §4.3 single-task overrun probe).
struct Inflation {
  static constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);
  Duration all = Duration::zero();
  std::size_t pos = kNoTask;
  Duration one = Duration::zero();
};

class PriorityView;

/// The Lehoczky busy-period analysis of the task at position `pos` of
/// `view`, with costs raised by `extra`. Without `deadline_cap` this is
/// the paper's Figure 2 analysis. With it, the analysis stops with
/// bounded = false (and the jobs examined so far) as soon as some job is
/// certain to miss its deadline, so bounded then means "every job of the
/// busy period meets its deadline", and stop = kMiss dates that miss at
/// jobs_examined·Ti + Di.
[[nodiscard]] RtaResult busy_period(const PriorityView& view, std::size_t pos,
                                    const RtaOptions& opts = {},
                                    const Inflation& extra = {},
                                    bool deadline_cap = false);

/// A task set's timing parameters flattened into priority order
/// (descending priority, ties by TaskId). Position p's interferers — the
/// paper's HP(S), "higher or equal priority" — are the positions
/// [0, interferer_end(p)) other than p itself, so equal priorities
/// interfere both ways.
class PriorityView {
 public:
  PriorityView() = default;
  /// Views every task of `ts`.
  explicit PriorityView(const TaskSet& ts);

  /// Re-targets the view at the tasks `ids` of `ts` only (one core's
  /// load in a placement probe), reusing the view's storage.
  void assign(const TaskSet& ts, std::span<const TaskId> ids);

  [[nodiscard]] std::size_t size() const { return id_.size(); }
  /// TaskId of the task at position `pos`.
  [[nodiscard]] TaskId id(std::size_t pos) const { return id_[pos]; }
  /// Position of task `id`; throws if the view does not hold it.
  [[nodiscard]] std::size_t position(TaskId id) const;
  [[nodiscard]] std::size_t interferer_end(std::size_t pos) const {
    return end_[pos];
  }
  [[nodiscard]] Duration cost(std::size_t pos) const {
    return Duration::ns(cost_[pos]);
  }
  [[nodiscard]] Duration deadline(std::size_t pos) const {
    return Duration::ns(deadline_[pos]);
  }

 private:
  friend RtaResult busy_period(const PriorityView&, std::size_t,
                               const RtaOptions&, const Inflation&, bool);

  /// Sorts id_ into priority order and fills the arrays from `ts`.
  void index(const TaskSet& ts);

  std::vector<TaskId> id_;
  std::vector<std::int64_t> cost_;
  std::vector<std::int64_t> period_;
  std::vector<std::int64_t> deadline_;
  std::vector<std::size_t> end_;
};

/// Worst-case response time of task `id` within `ts` (paper Figure 2).
/// Offsets are ignored: the critical instant (synchronous release) is a
/// sound worst case for fixed-priority scheduling.
[[nodiscard]] RtaResult response_time(const TaskSet& ts, TaskId id,
                                      const RtaOptions& opts = {});

/// Classic single-job fixed point (valid as the WCRT when the result does
/// not exceed the period). Returns nullopt when iteration diverges.
/// Kept separate because tests cross-validate it against the general
/// algorithm, and because it is the textbook form (Joseph & Pandya).
[[nodiscard]] std::optional<Duration> classic_response_time(
    const TaskSet& ts, TaskId id, const RtaOptions& opts = {});

/// The same fixed point for the task at `pos` of `view`, costs raised by
/// `extra` (the blocking analysis folds a blocking term in this way).
[[nodiscard]] std::optional<Duration> classic_response_time(
    const PriorityView& view, std::size_t pos, const RtaOptions& opts = {},
    const Inflation& extra = {});

/// Convenience: WCRT of every task, in TaskId order.
[[nodiscard]] std::vector<RtaResult> response_times(const TaskSet& ts,
                                                    const RtaOptions& opts = {});

}  // namespace rtft::sched
