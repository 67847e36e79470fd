// Batch scenario sweeps — many task systems through the analyses and the
// virtual-time engine at once.
//
// The paper evaluates one hand-built system (Table 2). This module turns
// that into a population study in the style of the weakly-hard and
// multi-task-set evaluation literature: a deterministic generator fans
// random task systems (UUniFast utilizations, deadline-monotonic
// priorities) across a parameter grid of task count × utilization ×
// detector cost, a worker pool runs every scenario through
//
//   1. the RTA/feasibility analysis          (schedulable?)
//   2. a nominal rt::Engine run              (does the engine agree?)
//   3. the equitable-allowance search plus a faulty run that overruns by
//      exactly the allowance                 (is the allowance honored?)
//   4. a detector-loaded run with per-fire CPU cost
//      (does detection overhead break marginal systems? §6.2)
//
// and the per-scenario verdicts are aggregated into grid-cell and total
// summaries. Results are bitwise deterministic for a given (seed, grid,
// scenario count) regardless of worker count or thread scheduling: every
// scenario's verdict is a pure function of its derived seed, and verdicts
// are stored by scenario index, not completion order.
//
// The sweep API is a partition/run/merge triad, so the scenario index
// space can be split across threads, processes or hosts:
//
//   SweepPlan plan(opts);                  // validate once, partition
//   ShardSpec s   = plan.shard(i, n);      // contiguous index range i/n
//   ShardResult r = run_shard(s, opts);    // any process, any workers
//   SweepReport report = merge(shards);    // == single-process run,
//                                          //    bit for bit
//
// run_sweep() is the single-process convenience: plan -> run -> merge of
// one shard covering everything. Shards serialize to versioned JSON
// (sweep/export.hpp: shard_json / load_shard_json) so the run step can
// cross process and host boundaries.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.hpp"
#include "common/time.hpp"
#include "core/treatment.hpp"
#include "multicore/multi_engine.hpp"
#include "runtime/engine.hpp"
#include "sweep/generators.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"

namespace rtft::sweep {

/// The parameter grid a sweep covers. Scenarios are assigned to cells
/// round-robin by index, so every cell receives an equal share (+/-1) of
/// the scenario budget in a deterministic order.
struct SweepGrid {
  std::vector<std::size_t> task_counts = {3, 5, 8};
  std::vector<double> utilizations = {0.5, 0.7, 0.9};
  std::vector<Duration> detector_costs = {Duration::zero()};
  /// Stop-poll latencies for the engine runs (§4.1's cooperative-stop
  /// delay). Matters under a stopping detector policy: a slow poll lets
  /// a faulty job burn CPU past its stop request. The default single
  /// zero keeps the historical grid shape (and fingerprint) unchanged.
  std::vector<Duration> stop_poll_latencies = {Duration::zero()};
  /// Core counts for the partitioned-multiprocessor stage (ROADMAP
  /// 4(b)). Cells with cores > 1 additionally place the task set on a
  /// per-core engine fleet (first-fit and fault-aware primary/backup
  /// placement), kill the busiest core mid-run and record the
  /// fail-over verdicts. The default single 1 keeps the historical
  /// grid shape (and both pinned fingerprints) unchanged.
  std::vector<std::size_t> core_counts = {1};
  /// Detector timer-quantizer resolutions (the paper's §6.2 jRate
  /// grid as an axis). The default single 1 ms keeps the historical
  /// exact-threshold behaviour (no rounding); any other resolution
  /// arms paper-style round-to-nearest on the detector thresholds.
  std::vector<Duration> quantizer_resolutions = {Duration::ms(1)};
  /// Deadline = period * factor drawn uniformly from this range
  /// (<= 1: constrained deadlines, the paper's setting).
  double deadline_min_factor = 0.8;
  double deadline_max_factor = 1.0;
  Duration min_period = Duration::ms(10);
  Duration max_period = Duration::ms(1000);

  [[nodiscard]] std::size_t cell_count() const {
    return task_counts.size() * utilizations.size() * detector_costs.size() *
           stop_poll_latencies.size() * core_counts.size() *
           quantizer_resolutions.size();
  }
};

/// Everything one worker needs to run one scenario.
struct ScenarioSpec {
  std::uint64_t index = 0;  ///< position in the sweep, assigns the cell.
  std::uint64_t seed = 0;   ///< derived seed; fully determines the task set.
  std::size_t cell = 0;     ///< flat grid-cell index.
  RandomTaskSetSpec tasks;
  Duration detector_cost;
  Duration stop_poll_latency;
  std::size_t cores = 1;
  Duration quantum = Duration::ms(1);  ///< detector-quantizer resolution.
};

/// Which placement strategies the multicore stage runs. kBoth pairs
/// the verdicts per scenario — the evidence the fault-aware placement
/// is worth its admission cost is exactly a cell where it stays clean
/// while first-fit misses on the same draw.
enum class PartitionerMode : std::uint8_t {
  kBoth,
  kFirstFit,
  kFaultAware,
};

/// "both", "first-fit" or "fault-aware" — the CLI/export spelling.
[[nodiscard]] std::string_view to_string(PartitionerMode mode);
/// Inverse of to_string; throws ContractViolation for unknown names.
[[nodiscard]] PartitionerMode partitioner_mode_from_string(
    std::string_view name);

/// Sweep-wide options.
struct SweepOptions {
  std::uint64_t scenario_count = 1000;
  /// Worker threads; 0 means hardware concurrency.
  std::size_t workers = 4;
  std::uint64_t base_seed = 42;
  SweepGrid grid;
  /// Granularity of the equitable-allowance binary search. Coarser than
  /// the exact-nanosecond default: a sweep values throughput and only
  /// needs A to be *a* feasible allowance, not the supremum.
  Duration allowance_granularity = Duration::us(100);
  /// Engine window, as a multiple of the set's largest period.
  std::int64_t horizon_periods = 8;
  /// Policy armed in the detector-loaded run.
  core::TreatmentPolicy detector_policy = core::TreatmentPolicy::kDetectOnly;
  /// Placement strategies run in multicore cells (cores > 1).
  PartitionerMode partitioner = PartitionerMode::kBoth;
  /// When the multicore stage kills a core: the fault instant as a
  /// fraction of the scenario horizon, in [0, 1]. The victim is the
  /// core with the highest primary utilization (ties to the lowest
  /// index). 0 disables the fault (placement verdicts only); 1 dates
  /// it at the horizon, which also never fires.
  double core_fault_fraction = 0.5;
  /// Keep the per-scenario verdicts in the report (aggregates are always
  /// computed). Off saves memory on very large sweeps.
  bool keep_verdicts = true;
  /// Observation for the engine runs. By default the engines run with
  /// no sink at all — verdicts read the engine's TaskStats and the
  /// detector bank, the paper's keep-the-substrate-undisturbed
  /// discipline at sweep scale. Setting this routes every event into a
  /// per-worker full-fidelity trace::Recorder (cleared between runs).
  /// Verdicts and the fingerprint are identical either way; the knob
  /// exists for debugging and for measuring what full-trace observation
  /// costs.
  bool full_traces = false;
  /// Progress hook: invoked once per completed scenario with
  /// (scenarios completed so far, scenarios in this run) — for a shard
  /// run, "this run" is the shard. Invocations are serialized (the
  /// worker pool holds a lock across counter increment and call), and
  /// `completed` is exactly sequential: 1, 2, ..., total, each call one
  /// larger than the last. The callback itself therefore needs no
  /// internal locking, but it runs on whichever worker thread finished
  /// the scenario and while the progress lock is held — keep it cheap,
  /// and never call back into the sweep from inside it. On a non-empty
  /// run the final call reports (total, total); an empty shard makes no
  /// calls at all. Purely observational: verdicts, aggregates and
  /// fingerprints are identical with or without it. Empty (the default)
  /// costs nothing.
  std::function<void(std::uint64_t completed, std::uint64_t total)>
      on_progress;
};

/// Outcome of one scenario. Every field is a pure function of the spec.
struct ScenarioVerdict {
  std::uint64_t index = 0;
  std::uint64_t seed = 0;
  std::size_t cell = 0;
  std::size_t task_count = 0;
  double target_utilization = 0.0;
  double actual_utilization = 0.0;
  Duration detector_cost;
  Duration stop_poll_latency;

  bool rta_schedulable = false;   ///< analysis: every WCRT within deadline.
  bool engine_clean = false;      ///< nominal run: zero deadline misses.
  std::int64_t nominal_misses = 0;
  /// RTA soundness vs the engine: schedulable implies a clean run. (The
  /// converse may fail — the window is finite and the analysis is
  /// worst-case — so a clean run of an unschedulable-by-RTA set is fine.)
  bool agreement = false;

  bool allowance_feasible = false;  ///< feasible at zero inflation.
  Duration allowance;               ///< equitable A at sweep granularity.
  /// Faulty run: the highest-priority task overruns job 0 by exactly A;
  /// honored means still zero misses (§4.2's guarantee).
  bool allowance_honored = false;

  /// Detector-loaded run with per-fire cost: zero misses?
  bool detector_clean = false;
  std::int64_t detector_faults = 0;  ///< faults reported by the detectors.

  // Multicore stage (cells with cores > 1; inert at the defaults so
  // both pinned fingerprints survive). ff_* = first-fit placement,
  // fa_* = fault-aware placement, each run on the same draw.
  std::size_t cores = 1;
  Duration quantum = Duration::ms(1);  ///< detector-quantizer resolution.
  bool ff_placement_feasible = false;  ///< first-fit found every slot.
  bool fa_placement_feasible = false;  ///< fault-aware admitted backups.
  bool ff_failover_clean = false;      ///< no task missed across the fault.
  bool fa_failover_clean = false;
  std::int64_t ff_missed_tasks = 0;  ///< tasks not kSurvived.
  std::int64_t fa_missed_tasks = 0;
  std::int64_t ff_lost_jobs = 0;  ///< in-flight jobs lost with the core.
  std::int64_t fa_lost_jobs = 0;
};

/// Counting aggregate over a set of verdicts.
struct SweepAggregate {
  std::uint64_t total = 0;
  std::uint64_t rta_schedulable = 0;
  std::uint64_t engine_clean = 0;
  std::uint64_t agreement_violations = 0;
  std::uint64_t allowance_feasible = 0;
  std::uint64_t allowance_honored = 0;
  std::uint64_t detector_clean = 0;
  Duration allowance_sum;  ///< over allowance_feasible scenarios.
  // Multicore counters (over verdicts with cores > 1; all zero on a
  // historical single-core sweep).
  std::uint64_t multicore = 0;  ///< verdicts that ran the multicore stage.
  std::uint64_t ff_placed = 0;
  std::uint64_t fa_placed = 0;
  std::uint64_t ff_failover_clean = 0;
  std::uint64_t fa_failover_clean = 0;

  void add(const ScenarioVerdict& v);
  /// Adds another aggregate's counts — how shard totals combine. Sums
  /// are associative, so merging per-shard aggregates in any grouping
  /// reproduces the single-pass aggregate exactly.
  void merge(const SweepAggregate& other);
  /// Mean equitable allowance over the feasible scenarios.
  [[nodiscard]] double mean_allowance_ms() const;
};

/// Aggregate for one grid cell.
struct CellSummary {
  std::size_t task_count = 0;
  double utilization = 0.0;
  Duration detector_cost;
  Duration stop_poll_latency;
  std::size_t cores = 1;
  Duration quantum = Duration::ms(1);
  SweepAggregate agg;
};

/// Full sweep outcome.
struct SweepReport {
  SweepOptions options;  ///< as resolved (workers filled in).
  SweepAggregate totals;
  std::vector<CellSummary> cells;        ///< grid order.
  std::vector<ScenarioVerdict> verdicts; ///< index order; empty unless kept.
  /// Wall-clock of the sweep, for the CLI's scenarios/s line. Not part of
  /// the deterministic state.
  double elapsed_seconds = 0.0;
  /// FNV-1a hash over every verdict's deterministic fields, in index
  /// order (computed even when verdicts are not kept). Two runs with
  /// equal (seed, grid, count) produce equal fingerprints whatever the
  /// worker count.
  std::uint64_t fingerprint = 0;

  /// Aligned per-cell summary table plus a totals line.
  [[nodiscard]] std::string table() const;
};

/// The spec for scenario `index` of a sweep (pure function of options).
[[nodiscard]] ScenarioSpec scenario_spec(const SweepOptions& opts,
                                         std::uint64_t index);

namespace detail {
/// Fills every cell's grid coordinates (task count, utilization,
/// detector cost, stop-poll latency) from the options, leaving the
/// aggregates untouched. One definition shared by run_shard, merge and
/// the shard-file loader so the metadata cannot drift between them.
void fill_cell_metadata(const SweepOptions& opts,
                        std::vector<CellSummary>& cells);

/// True when two option sets define the same scenario population —
/// every field a verdict depends on. Workers and full_traces are
/// excluded on purpose: they do not affect verdicts, so shards run with
/// different worker counts (or with and without full traces) merge
/// fine. Shared by merge() and the sweep coordinator's checkpoint-resume
/// validation, so "same sweep" cannot mean different things in the two
/// places.
[[nodiscard]] bool same_scenario_identity(const SweepOptions& a,
                                          const SweepOptions& b);
}  // namespace detail

// ---------------------------------------------------------------------------
// The partition/run/merge triad.
// ---------------------------------------------------------------------------

/// Thrown when shard inputs cannot be combined or loaded: malformed or
/// tampered shard files, shards from different sweeps, ranges that do
/// not tile the index space. Ordinary (recoverable) error reporting —
/// unlike ContractViolation, which flags caller bugs.
class ShardError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A contiguous half-open range [begin, end) of scenario indices —
/// shard `index` of `shards` in a SweepPlan partition. The unit of
/// distribution: every scenario's verdict is a pure function of
/// (options, index), so a shard can run in any process on any host.
struct ShardSpec {
  std::uint64_t index = 0;   ///< which shard: 0 <= index < shards.
  std::uint64_t shards = 1;  ///< how many shards the plan was split into.
  std::uint64_t begin = 0;   ///< first scenario index (inclusive).
  std::uint64_t end = 0;     ///< one past the last scenario index.

  [[nodiscard]] std::uint64_t count() const { return end - begin; }
};

/// Validated, resolved sweep options plus the deterministic partition of
/// the scenario index space. Construction performs all option checks
/// (one ContractViolation on the calling thread, never a worker crash)
/// and resolves workers == 0 to the hardware concurrency; shard() is
/// then a pure function, so cooperating processes that construct the
/// plan from equal options agree on every range without coordination.
class SweepPlan {
 public:
  explicit SweepPlan(const SweepOptions& opts);

  [[nodiscard]] const SweepOptions& options() const { return opts_; }
  [[nodiscard]] std::uint64_t scenario_count() const {
    return opts_.scenario_count;
  }
  /// Shard `i` of `n`: contiguous ranges that tile [0, scenario_count)
  /// in index order, sizes equal to within one (the first
  /// scenario_count % n shards take the extra scenario). n may exceed
  /// the scenario count; trailing shards are then empty.
  [[nodiscard]] ShardSpec shard(std::uint64_t i, std::uint64_t n) const;

 private:
  SweepOptions opts_;
};

/// The sweep fingerprint as a running FNV-1a fold over verdicts in
/// index order. Exposed so that merge() and the shard-file loader chain
/// or recompute the exact same hash the single-process sweep produces.
class Fingerprint {
 public:
  /// Folds one verdict's deterministic fields into the state.
  void add(const ScenarioVerdict& v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis.
};

/// Outcome of one shard: the shard's slice of every SweepReport field.
/// Verdicts are always kept — they are the shard's fingerprint
/// contribution (FNV-1a state is sequential, so merge() re-folds the
/// verdict fields in index order; a lone hash could not be chained) —
/// and SweepOptions::keep_verdicts decides only whether the *merged*
/// report retains them.
struct ShardResult {
  SweepOptions options;  ///< as resolved by the plan (workers filled in).
  ShardSpec shard;
  SweepAggregate totals;           ///< this shard's scenarios only.
  std::vector<CellSummary> cells;  ///< grid order; partial counts.
  std::vector<ScenarioVerdict> verdicts;  ///< index order, always kept.
  /// FNV-1a fold over this shard's verdicts from the offset basis: a
  /// pure function of (seed, grid, range) for cross-process spot checks
  /// and loader validation. Equals the sweep fingerprint only for a
  /// shard covering the whole index space.
  std::uint64_t fingerprint = 0;
  double elapsed_seconds = 0.0;  ///< not part of the deterministic state.
};

/// Runs one shard on `opts.workers` threads (clamped to the shard size).
/// The per-worker ScenarioRunner is the unit of execution, exactly as in
/// a single-process sweep. Deterministic minus elapsed_seconds.
[[nodiscard]] ShardResult run_shard(const ShardSpec& shard,
                                    const SweepOptions& opts);

/// Combines shard results into the SweepReport the single-process sweep
/// would have produced — totals, per-cell aggregates and fingerprint are
/// bit-identical for any shard count and any per-shard worker count.
/// Shards may arrive in any order but must come from the same sweep
/// (equal seed/grid/policy identity) and tile [0, scenario_count)
/// exactly; anything else throws ShardError.
[[nodiscard]] SweepReport merge(std::span<const ShardResult> shards);
/// Owning overload: moves the shards' verdicts into the report instead
/// of copying them — what run_sweep and the CLI use, so a
/// million-scenario sweep never holds its verdicts twice.
[[nodiscard]] SweepReport merge(std::vector<ShardResult>&& shards);

/// Incremental merge: folds shards into the report one at a time, as
/// they load, instead of holding every ShardResult in memory at once —
/// what `sweep_runner --merge` and the coordinator use, so peak memory
/// is the report plus the shards buffered out of order, not the whole
/// sweep twice. Produces the exact report (totals, cells, verdicts and
/// fingerprint bit for bit) the batch merge() overloads produce for the
/// same shards in any arrival order: the FNV-1a fold is sequential in
/// index order, so a shard arriving early is folded immediately and a
/// shard arriving out of order is buffered until the gap before it
/// closes.
///
///   ShardMerger merger;
///   for (auto& file : files) merger.add(load_shard_json(read(file)));
///   SweepReport report = merger.finish();
///
/// add() throws ShardError on identity mismatches and overlapping
/// ranges as they are detected; finish() throws if the accepted shards
/// do not tile [0, scenario_count) exactly. The merger is single-use:
/// after finish() (or a throw from it) construct a fresh one.
class ShardMerger {
 public:
  /// Folds one shard in. The first shard fixes the sweep identity;
  /// later shards must match it (ShardError otherwise, the shard is
  /// not consumed logically — the merger stays usable).
  void add(ShardResult&& shard);

  /// Scenarios folded so far (buffered out-of-order shards included).
  [[nodiscard]] std::uint64_t accepted_scenarios() const {
    return accepted_scenarios_;
  }
  /// Shards buffered waiting for a gap to close.
  [[nodiscard]] std::size_t pending_shards() const { return pending_.size(); }

  /// Validates full coverage and returns the merged report.
  [[nodiscard]] SweepReport finish();

 private:
  void fold(ShardResult&& shard);
  void drain_pending();

  bool have_base_ = false;
  SweepReport report_;           ///< accumulated in index order.
  Fingerprint fp_;
  std::uint64_t expected_begin_ = 0;
  std::uint64_t accepted_scenarios_ = 0;
  std::vector<ShardResult> pending_;  ///< out-of-order arrivals.
};

/// Per-worker reusable execution context: one engine (plus a recorder
/// under full_traces), re-armed between scenarios, so a sweep pays no
/// per-scenario engine or trace-buffer allocation (the seed design
/// heap-allocated a fresh engine plus a 64K-event recorder for every one
/// of the four runs of every scenario). `opts` is borrowed and must
/// outlive the runner. Verdicts remain pure functions of the spec: run()
/// fully resets the engine, so reuse is observationally identical to a
/// fresh engine.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(const SweepOptions& opts);

  /// Runs one scenario to its verdict.
  [[nodiscard]] ScenarioVerdict run(const ScenarioSpec& spec);

 private:
  /// Re-arms the engine for one run over `horizon` and registers `ts`;
  /// `faulty` (if set) gets `extra` added to the cost of its job 0.
  void arm(const sched::TaskSet& ts, Duration horizon,
           std::optional<sched::TaskId> faulty = {},
           Duration extra = Duration::zero());
  [[nodiscard]] std::int64_t total_misses() const;
  /// The multicore stage (cells with cores > 1): places the set with
  /// each requested partitioner, kills the busiest core at the
  /// configured horizon fraction, and fills the ff_*/fa_* verdict
  /// fields. Verdicts come from engine statistics.
  void run_multicore(const ScenarioSpec& spec, const sched::TaskSet& ts,
                     Duration horizon, ScenarioVerdict& v);

  const SweepOptions& opts_;
  rt::Engine engine_;
  trace::Recorder full_;  ///< used only when opts.full_traces.
  std::vector<rt::TaskHandle> handles_;
  Duration stop_poll_latency_;  ///< current scenario's §4.1 poll delay.
  multicore::MultiEngine fleet_;  ///< pooled; armed in multicore cells only.
  multicore::FirstFitDecreasing first_fit_;
  multicore::FaultAware fault_aware_;
};

/// Runs one scenario to its verdict (pure; callable from any thread).
/// One-shot convenience over ScenarioRunner.
[[nodiscard]] ScenarioVerdict run_scenario(const ScenarioSpec& spec,
                                           const SweepOptions& opts);

/// Fans `opts.scenario_count` scenarios across `opts.workers` threads and
/// aggregates. Deterministic for fixed options (minus elapsed_seconds).
/// A thin wrapper: plan -> run_shard of the one full-range shard ->
/// merge, so every caller exercises the same code path a distributed
/// sweep does.
[[nodiscard]] SweepReport run_sweep(const SweepOptions& opts);

}  // namespace rtft::sweep
