#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "core/detector.hpp"
#include "runtime/engine.hpp"
#include "runtime/quantize.hpp"
#include "sched/allowance.hpp"
#include "sched/feasibility.hpp"
#include "sched/priority.hpp"

namespace rtft::sweep {
namespace {

// ---------------------------------------------------------------------------
// Deterministic fingerprinting (FNV-1a 64).
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(d));
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// ---------------------------------------------------------------------------
// Per-scenario execution.
// ---------------------------------------------------------------------------

Duration max_period(const sched::TaskSet& ts) {
  Duration m = Duration::zero();
  for (const auto& t : ts) m = std::max(m, t.period);
  return m;
}

}  // namespace

void Fingerprint::add(const ScenarioVerdict& v) {
  std::uint64_t& h = h_;
  fnv_mix(h, v.index);
  fnv_mix(h, v.seed);
  fnv_mix(h, v.cell);
  fnv_mix(h, v.task_count);
  fnv_mix(h, bits_of(v.actual_utilization));
  fnv_mix(h, static_cast<std::uint64_t>(v.detector_cost.count()));
  const std::uint64_t flags =
      (v.rta_schedulable ? 1u : 0u) | (v.engine_clean ? 2u : 0u) |
      (v.agreement ? 4u : 0u) | (v.allowance_feasible ? 8u : 0u) |
      (v.allowance_honored ? 16u : 0u) | (v.detector_clean ? 32u : 0u);
  fnv_mix(h, flags);
  fnv_mix(h, static_cast<std::uint64_t>(v.nominal_misses));
  fnv_mix(h, static_cast<std::uint64_t>(v.allowance.count()));
  fnv_mix(h, static_cast<std::uint64_t>(v.detector_faults));
  // The stop-poll-latency axis postdates the pinned default-grid
  // fingerprint (3de9f44828016e12); mixing its zero default would
  // silently re-fingerprint every historical sweep, so only non-default
  // values contribute.
  if (!v.stop_poll_latency.is_zero()) {
    fnv_mix(h, static_cast<std::uint64_t>(v.stop_poll_latency.count()));
  }
  // Same rule for the quantizer and multicore axes (they postdate both
  // pins, 3de9f44828016e12 and 29f191207d7f83cd): the defaults — 1 ms
  // resolution, one core — contribute nothing.
  if (v.quantum != Duration::ms(1)) {
    fnv_mix(h, static_cast<std::uint64_t>(v.quantum.count()));
  }
  if (v.cores > 1) {
    fnv_mix(h, v.cores);
    const std::uint64_t mc_flags = (v.ff_placement_feasible ? 1u : 0u) |
                                   (v.fa_placement_feasible ? 2u : 0u) |
                                   (v.ff_failover_clean ? 4u : 0u) |
                                   (v.fa_failover_clean ? 8u : 0u);
    fnv_mix(h, mc_flags);
    fnv_mix(h, static_cast<std::uint64_t>(v.ff_missed_tasks));
    fnv_mix(h, static_cast<std::uint64_t>(v.fa_missed_tasks));
    fnv_mix(h, static_cast<std::uint64_t>(v.ff_lost_jobs));
    fnv_mix(h, static_cast<std::uint64_t>(v.fa_lost_jobs));
  }
}

std::string_view to_string(PartitionerMode mode) {
  switch (mode) {
    case PartitionerMode::kBoth: return "both";
    case PartitionerMode::kFirstFit: return "first-fit";
    case PartitionerMode::kFaultAware: return "fault-aware";
  }
  RTFT_ASSERT(false, "unknown partitioner mode");
  return "both";
}

PartitionerMode partitioner_mode_from_string(std::string_view name) {
  if (name == "both") return PartitionerMode::kBoth;
  if (name == "first-fit") return PartitionerMode::kFirstFit;
  if (name == "fault-aware") return PartitionerMode::kFaultAware;
  RTFT_EXPECTS(false, "unknown partitioner mode name");
  return PartitionerMode::kBoth;
}

// ---------------------------------------------------------------------------
// Aggregates.
// ---------------------------------------------------------------------------

void SweepAggregate::add(const ScenarioVerdict& v) {
  ++total;
  if (v.rta_schedulable) ++rta_schedulable;
  if (v.engine_clean) ++engine_clean;
  if (!v.agreement) ++agreement_violations;
  if (v.allowance_feasible) {
    ++allowance_feasible;
    allowance_sum += v.allowance;
    if (v.allowance_honored) ++allowance_honored;
  }
  if (v.detector_clean) ++detector_clean;
  if (v.cores > 1) {
    ++multicore;
    if (v.ff_placement_feasible) ++ff_placed;
    if (v.fa_placement_feasible) ++fa_placed;
    if (v.ff_failover_clean) ++ff_failover_clean;
    if (v.fa_failover_clean) ++fa_failover_clean;
  }
}

void SweepAggregate::merge(const SweepAggregate& other) {
  total += other.total;
  rta_schedulable += other.rta_schedulable;
  engine_clean += other.engine_clean;
  agreement_violations += other.agreement_violations;
  allowance_feasible += other.allowance_feasible;
  allowance_honored += other.allowance_honored;
  detector_clean += other.detector_clean;
  allowance_sum += other.allowance_sum;
  multicore += other.multicore;
  ff_placed += other.ff_placed;
  fa_placed += other.fa_placed;
  ff_failover_clean += other.ff_failover_clean;
  fa_failover_clean += other.fa_failover_clean;
}

double SweepAggregate::mean_allowance_ms() const {
  if (allowance_feasible == 0) return 0.0;
  return allowance_sum.to_ms() / static_cast<double>(allowance_feasible);
}

// ---------------------------------------------------------------------------
// Grid plumbing.
// ---------------------------------------------------------------------------

ScenarioSpec scenario_spec(const SweepOptions& opts, std::uint64_t index) {
  const SweepGrid& g = opts.grid;
  RTFT_EXPECTS(g.cell_count() > 0, "sweep grid must have at least one cell");
  const std::size_t cells = g.cell_count();
  const std::size_t cell = static_cast<std::size_t>(index % cells);

  // Flat cell -> (task_count, utilization, detector_cost, stop
  // latency, cores, quantum); the quantizer resolution varies fastest,
  // then cores, then stop latency, ..., task count slowest. With the
  // default single-value core and quantum axes the mapping is
  // identical to the historical grids (three-axis and four-axis).
  const std::size_t q_n = g.quantizer_resolutions.size();
  const std::size_t m_n = g.core_counts.size();
  const std::size_t s_n = g.stop_poll_latencies.size();
  const std::size_t d_n = g.detector_costs.size();
  const std::size_t u_n = g.utilizations.size();
  const std::size_t q_i = cell % q_n;
  const std::size_t m_i = (cell / q_n) % m_n;
  const std::size_t s_i = (cell / (q_n * m_n)) % s_n;
  const std::size_t d_i = (cell / (q_n * m_n * s_n)) % d_n;
  const std::size_t u_i = (cell / (q_n * m_n * s_n * d_n)) % u_n;
  const std::size_t t_i = cell / (q_n * m_n * s_n * d_n * u_n);

  ScenarioSpec spec;
  spec.index = index;
  spec.seed = scenario_seed(opts.base_seed, index);
  spec.cell = cell;
  spec.tasks.tasks = g.task_counts[t_i];
  spec.tasks.total_utilization = g.utilizations[u_i];
  spec.tasks.min_period = g.min_period;
  spec.tasks.max_period = g.max_period;
  spec.tasks.deadline_min_factor = g.deadline_min_factor;
  spec.tasks.deadline_max_factor = g.deadline_max_factor;
  spec.detector_cost = g.detector_costs[d_i];
  spec.stop_poll_latency = g.stop_poll_latencies[s_i];
  spec.cores = g.core_counts[m_i];
  spec.quantum = g.quantizer_resolutions[q_i];
  return spec;
}

namespace detail {

void fill_cell_metadata(const SweepOptions& opts,
                        std::vector<CellSummary>& cells) {
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const ScenarioSpec spec = scenario_spec(opts, c);
    cells[c].task_count = spec.tasks.tasks;
    cells[c].utilization = spec.tasks.total_utilization;
    cells[c].detector_cost = spec.detector_cost;
    cells[c].stop_poll_latency = spec.stop_poll_latency;
    cells[c].cores = spec.cores;
    cells[c].quantum = spec.quantum;
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// One scenario.
// ---------------------------------------------------------------------------

namespace {

rt::EngineOptions placeholder_engine_options() {
  rt::EngineOptions eopts;
  eopts.horizon = Instant::from_ns(1);  // re-armed before every run.
  return eopts;
}

}  // namespace

ScenarioRunner::ScenarioRunner(const SweepOptions& opts)
    : opts_(opts),
      engine_(placeholder_engine_options()),
      full_(opts.full_traces ? (std::size_t{1} << 16) : 0) {
  // Pre-size the engine from the grid so even the worker's first run
  // allocates nothing mid-simulation. The busiest draw the grid can
  // produce releases tasks x ceil(horizon / min period) jobs — that
  // bound sizes the per-task outcome logs (Engine::add_task reserves
  // them from the actual horizon and period). The event queue only ever
  // holds *outstanding* events — one release and at most one completion
  // per task, plus detector timers and stop/overhead slack — so its hint
  // is a small multiple of the largest swept task count.
  std::size_t max_tasks = 0;
  for (const std::size_t n : opts.grid.task_counts) {
    max_tasks = std::max(max_tasks, n);
  }
  engine_.reserve(max_tasks, 4 * max_tasks + 16);
  handles_.reserve(max_tasks);
  // Multicore cells reuse a pooled fleet the same way; a historical
  // single-core grid never pays for it.
  std::size_t max_cores = 1;
  for (const std::size_t m : opts.grid.core_counts) {
    max_cores = std::max(max_cores, m);
  }
  if (max_cores > 1) {
    fleet_.reserve(max_cores, max_tasks, 4 * max_tasks + 16);
  }
}

void ScenarioRunner::arm(const sched::TaskSet& ts, Duration horizon,
                         std::optional<sched::TaskId> faulty,
                         Duration extra) {
  rt::EngineOptions eopts;
  eopts.horizon = Instant::epoch() + horizon;
  eopts.stop_poll_latency = stop_poll_latency_;
  if (opts_.full_traces) {
    full_.clear();
    eopts.sink = &full_;
  }
  engine_.reset(eopts);
  handles_.clear();
  for (sched::TaskId id = 0; id < ts.size(); ++id) {
    rt::CostSpec cost;  // nominal
    if (faulty && *faulty == id) cost = rt::CostSpec::fixed_overrun(0, extra);
    handles_.push_back(engine_.add_task(ts[id], std::move(cost)));
  }
}

std::int64_t ScenarioRunner::total_misses() const {
  std::int64_t misses = 0;
  for (const rt::TaskHandle h : handles_) misses += engine_.stats(h).missed;
  return misses;
}

ScenarioVerdict ScenarioRunner::run(const ScenarioSpec& spec) {
  const sched::TaskSet ts = make_seeded_task_set(spec.seed, spec.tasks);
  const Duration horizon = max_period(ts) * opts_.horizon_periods;
  stop_poll_latency_ = spec.stop_poll_latency;

  ScenarioVerdict v;
  v.index = spec.index;
  v.seed = spec.seed;
  v.cell = spec.cell;
  v.task_count = ts.size();
  v.target_utilization = spec.tasks.total_utilization;
  v.actual_utilization = ts.utilization();
  v.detector_cost = spec.detector_cost;
  v.stop_poll_latency = spec.stop_poll_latency;
  v.cores = spec.cores;
  v.quantum = spec.quantum;

  // 1. Analysis.
  v.rta_schedulable = sched::is_feasible(ts);

  // 2. Nominal engine run (synchronous release; the engine must agree
  //    with a schedulable verdict — RTA is a sound worst case).
  arm(ts, horizon);
  engine_.run();
  v.nominal_misses = total_misses();
  v.engine_clean = v.nominal_misses == 0;
  v.agreement = !v.rta_schedulable || v.engine_clean;

  // 3. Equitable allowance, then a faulty run overrunning by exactly A.
  sched::AllowanceOptions aopts;
  aopts.granularity = opts_.allowance_granularity;
  const sched::EquitableAllowance ea = sched::equitable_allowance(ts, aopts);
  v.allowance_feasible = ea.feasible_at_zero;
  if (ea.feasible_at_zero) {
    v.allowance = ea.allowance;
    const sched::TaskId top = ts.by_priority_desc().front();
    arm(ts, horizon, top, ea.allowance);
    engine_.run();
    v.allowance_honored = total_misses() == 0;
  }

  // 4. Detector-loaded run: detectors armed (exact thresholds, per-fire
  //    CPU cost) on top of the nominal workload. An infeasible set still
  //    runs, but with a detection-less plan (thresholds would be
  //    meaningless) — the same degradation FaultTolerantSystem applies.
  //    A *stopping* policy is exercised end-to-end instead: the
  //    top-priority task overruns job 0 far past its stop threshold, so
  //    its detector fires, the stop is requested, and the swept
  //    stop-poll latency (§4.1) decides how long the hog burns CPU
  //    before dying — visible in how many lower-priority detectors fire
  //    in the meantime. Non-stopping policies keep the nominal run (and
  //    the historical default-grid fingerprint) unchanged.
  core::TreatmentPlan plan = core::make_treatment_plan_or_degrade(
      ts, opts_.detector_policy, v.rta_schedulable, aopts);
  if (plan.detects && plan.stops) {
    arm(ts, horizon, ts.by_priority_desc().front(), max_period(ts));
  } else {
    arm(ts, horizon);
  }
  std::optional<core::DetectorBank> bank;
  if (plan.detects) {
    core::DetectorConfig dcfg;
    // The default 1 ms resolution keeps the historical exact-threshold
    // behaviour (kNone ignores the resolution); a swept non-default
    // resolution arms the paper's round-to-nearest jRate grid (§6.2).
    dcfg.quantizer =
        spec.quantum == Duration::ms(1)
            ? rt::Quantizer{Duration::ms(1), rt::Rounding::kNone}
            : rt::Quantizer{spec.quantum, rt::Rounding::kNearest};
    dcfg.fire_cost = spec.detector_cost;
    core::DetectorBank::FaultHandler handler;
    if (plan.stops) {
      handler = [](rt::Engine& e, rt::TaskHandle task, std::int64_t) {
        e.request_stop(task, rt::StopMode::kTask);
      };
    }
    bank.emplace(engine_, handles_, std::move(plan.thresholds), dcfg,
                 std::move(handler));
  }
  engine_.run();
  v.detector_clean = total_misses() == 0;
  v.detector_faults = bank ? bank->total_faults() : 0;

  // 5. Multicore stage: partitioned placement plus mid-run core
  //    fail-over (ROADMAP 4(b)). Only cells that sweep cores > 1 pay
  //    for it; single-core cells keep the historical verdict exactly.
  if (spec.cores > 1) run_multicore(spec, ts, horizon, v);
  return v;
}

void ScenarioRunner::run_multicore(const ScenarioSpec& spec,
                                   const sched::TaskSet& ts,
                                   Duration horizon, ScenarioVerdict& v) {
  // Engine statistics are the only verdict source here, so the stage
  // runs with no sink, even under full_traces.
  rt::EngineOptions eopts;
  eopts.horizon = Instant::epoch() + horizon;

  // Deterministic fault date: a fixed fraction of the horizon. The
  // double product is exact IEEE arithmetic on integral inputs, so
  // every platform computes the same instant.
  const Duration fault_after = Duration::ns(static_cast<std::int64_t>(
      opts_.core_fault_fraction * static_cast<double>(horizon.count())));

  const auto run_one = [&](const multicore::Partitioner& strategy,
                           bool& placed, bool& clean,
                           std::int64_t& missed_tasks,
                           std::int64_t& lost_jobs) {
    const multicore::Placement placement = strategy.place(ts, spec.cores);
    placed = placement.feasible;
    if (!placement.feasible) return;
    fleet_.reset(spec.cores, eopts);
    fleet_.add_placed(ts, placement);
    multicore::CoreFaultPlan fault;
    if (fault_after.is_positive() &&
        fault_after < horizon) {  // 0 and >= horizon disable the fault.
      // Kill the busiest core: highest primary utilization, ties to
      // the lowest index — the worst single failure the placement can
      // suffer under the single-fault hypothesis.
      const std::vector<double> load =
          multicore::primary_utilization(ts, placement, spec.cores);
      std::size_t victim = 0;
      for (std::size_t c = 1; c < load.size(); ++c) {
        if (load[c] > load[victim]) victim = c;
      }
      fault.core = victim;
      fault.at = Instant::epoch() + fault_after;
    }
    const multicore::MultiRunReport report = fleet_.run_with_fault(fault);
    clean = report.failover_clean;
    missed_tasks = report.missed_tasks;
    lost_jobs = report.total_lost_jobs;
  };

  if (opts_.partitioner != PartitionerMode::kFaultAware) {
    run_one(first_fit_, v.ff_placement_feasible, v.ff_failover_clean,
            v.ff_missed_tasks, v.ff_lost_jobs);
  }
  if (opts_.partitioner != PartitionerMode::kFirstFit) {
    run_one(fault_aware_, v.fa_placement_feasible, v.fa_failover_clean,
            v.fa_missed_tasks, v.fa_lost_jobs);
  }
}

ScenarioVerdict run_scenario(const ScenarioSpec& spec,
                             const SweepOptions& opts) {
  ScenarioRunner runner(opts);
  return runner.run(spec);
}

// ---------------------------------------------------------------------------
// The plan: validation + deterministic partitioning.
// ---------------------------------------------------------------------------

SweepPlan::SweepPlan(const SweepOptions& opts) : opts_(opts) {
  // Validate here, on the calling thread: a bad grid must surface as one
  // ContractViolation, not a std::terminate from every worker at once.
  RTFT_EXPECTS(opts.scenario_count > 0, "sweep needs at least one scenario");
  RTFT_EXPECTS(opts.grid.cell_count() > 0, "sweep grid must not be empty");
  RTFT_EXPECTS(opts.horizon_periods > 0, "horizon must cover >= 1 period");
  RTFT_EXPECTS(opts.allowance_granularity.is_positive(),
               "allowance granularity must be positive");
  // Generated sets take unique DM priorities from the RTSJ range, which
  // bounds the task count.
  constexpr std::size_t kMaxTasks =
      static_cast<std::size_t>(sched::kMaxRtPriority - sched::kMinRtPriority) +
      1;
  for (const std::size_t n : opts.grid.task_counts)
    RTFT_EXPECTS(n > 0 && n <= kMaxTasks,
                 "every swept task count must be in [1, 28] (the RTSJ "
                 "priority range)");
  for (const double u : opts.grid.utilizations)
    RTFT_EXPECTS(u > 0.0, "every swept utilization must be positive");
  for (const Duration c : opts.grid.detector_costs)
    RTFT_EXPECTS(!c.is_negative(), "detector cost must be non-negative");
  RTFT_EXPECTS(!opts.grid.stop_poll_latencies.empty(),
               "sweep needs at least one stop-poll latency");
  for (const Duration l : opts.grid.stop_poll_latencies)
    RTFT_EXPECTS(!l.is_negative(), "stop-poll latency must be non-negative");
  RTFT_EXPECTS(!opts.grid.core_counts.empty(),
               "sweep needs at least one core count");
  for (const std::size_t m : opts.grid.core_counts)
    RTFT_EXPECTS(m >= 1 && m <= 64,
                 "every swept core count must be in [1, 64]");
  RTFT_EXPECTS(!opts.grid.quantizer_resolutions.empty(),
               "sweep needs at least one quantizer resolution");
  for (const Duration q : opts.grid.quantizer_resolutions)
    RTFT_EXPECTS(q.is_positive(), "quantizer resolution must be positive");
  RTFT_EXPECTS(
      opts.core_fault_fraction >= 0.0 && opts.core_fault_fraction <= 1.0,
      "the core-fault fraction must lie in [0, 1]");
  RTFT_EXPECTS(opts.grid.min_period.is_positive() &&
                   opts.grid.max_period >= opts.grid.min_period,
               "period range must be positive and ordered");
  if (opts_.workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    opts_.workers = hw == 0 ? 1 : hw;
  }
}

ShardSpec SweepPlan::shard(std::uint64_t i, std::uint64_t n) const {
  RTFT_EXPECTS(n > 0, "a plan splits into at least one shard");
  RTFT_EXPECTS(i < n, "shard index must be below the shard count");
  // Contiguous, balanced to within one: the first `count % n` shards
  // take one extra scenario. Pure arithmetic — every process computes
  // the same ranges from equal options.
  const std::uint64_t count = opts_.scenario_count;
  const std::uint64_t quota = count / n;
  const std::uint64_t extra = count % n;
  ShardSpec spec;
  spec.index = i;
  spec.shards = n;
  spec.begin = i * quota + std::min<std::uint64_t>(i, extra);
  spec.end = spec.begin + quota + (i < extra ? 1 : 0);
  return spec;
}

// ---------------------------------------------------------------------------
// Running one shard: the worker pool.
// ---------------------------------------------------------------------------

ShardResult run_shard(const ShardSpec& shard, const SweepOptions& opts) {
  const SweepPlan plan(opts);  // validates, resolves workers.
  RTFT_EXPECTS(shard.begin <= shard.end,
               "shard range must be ordered: begin <= end");
  RTFT_EXPECTS(shard.end <= plan.scenario_count(),
               "shard range must lie within the sweep's scenario count");
  RTFT_EXPECTS(shard.shards > 0 && shard.index < shard.shards,
               "shard index must be below the shard count");
  SweepOptions resolved = plan.options();
  const std::uint64_t count = shard.count();
  // Never more threads than scenarios; an empty shard keeps one worker
  // slot (no thread runs — the pool below is skipped entirely).
  const std::size_t workers = static_cast<std::size_t>(std::min<std::uint64_t>(
      resolved.workers, std::max<std::uint64_t>(count, 1)));
  resolved.workers = workers;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<ScenarioVerdict> verdicts(count);
  std::atomic<std::uint64_t> next{0};
  // Progress state: a plain counter under a mutex, *not* an atomic. The
  // lock covers the increment and the callback together, so invocations
  // are serialized and each one observes `done` exactly one larger than
  // the previous — the monotone stream sweep.hpp promises. (With an
  // atomic counter two workers could increment back to back and then
  // invoke in the opposite order, showing the callback 2 then 1.)
  std::uint64_t completed = 0;
  std::mutex progress_mutex;
  // A throw inside a std::thread body would call std::terminate; capture
  // the first failure instead, stop handing out work, and rethrow on the
  // calling thread after the pool has drained.
  std::atomic<bool> failed{false};
  std::exception_ptr failure;
  std::mutex failure_mutex;
  auto worker = [&] {
    // One reusable engine + sink per worker: scenarios share event-pool,
    // task-slot and counter storage instead of reallocating per run.
    ScenarioRunner runner(resolved);
    for (;;) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count || failed.load(std::memory_order_relaxed)) return;
      try {
        verdicts[i] = runner.run(scenario_spec(resolved, shard.begin + i));
        if (resolved.on_progress) {
          const std::lock_guard<std::mutex> lock(progress_mutex);
          resolved.on_progress(++completed, count);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure) failure = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  if (count > 0) {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w + 1 < workers; ++w) pool.emplace_back(worker);
    worker();  // the calling thread participates.
    for (std::thread& t : pool) t.join();
    if (failure) std::rethrow_exception(failure);
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Serial aggregation in index order: deterministic whatever the
  // completion order above was.
  ShardResult result;
  result.options = resolved;
  result.shard = shard;
  result.cells.resize(resolved.grid.cell_count());
  Fingerprint fp;
  for (const ScenarioVerdict& v : verdicts) {
    result.totals.add(v);
    result.cells[v.cell].agg.add(v);
    fp.add(v);
  }
  result.fingerprint = fp.value();
  detail::fill_cell_metadata(resolved, result.cells);
  result.verdicts = std::move(verdicts);
  result.elapsed_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

// ---------------------------------------------------------------------------
// Merging shards back into one report.
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void merge_error(std::size_t shard_pos, const std::string& why) {
  throw ShardError("cannot merge shard #" + std::to_string(shard_pos) + ": " +
                   why);
}

}  // namespace

namespace detail {

bool same_scenario_identity(const SweepOptions& a, const SweepOptions& b) {
  return a.scenario_count == b.scenario_count && a.base_seed == b.base_seed &&
         a.horizon_periods == b.horizon_periods &&
         a.allowance_granularity == b.allowance_granularity &&
         a.detector_policy == b.detector_policy &&
         a.grid.task_counts == b.grid.task_counts &&
         a.grid.utilizations == b.grid.utilizations &&
         a.grid.detector_costs == b.grid.detector_costs &&
         a.grid.stop_poll_latencies == b.grid.stop_poll_latencies &&
         a.grid.core_counts == b.grid.core_counts &&
         a.grid.quantizer_resolutions == b.grid.quantizer_resolutions &&
         a.partitioner == b.partitioner &&
         a.core_fault_fraction == b.core_fault_fraction &&
         a.grid.deadline_min_factor == b.grid.deadline_min_factor &&
         a.grid.deadline_max_factor == b.grid.deadline_max_factor &&
         a.grid.min_period == b.grid.min_period &&
         a.grid.max_period == b.grid.max_period;
}

}  // namespace detail

namespace {

/// Shared merge implementation over shards in arbitrary input order.
/// `take_verdicts` moves each shard's verdict vector into the report
/// (the pointees are then consumed); false copies and never mutates.
SweepReport merge_shards(const std::vector<ShardResult*>& input,
                         bool take_verdicts) {
  if (input.empty()) {
    throw ShardError("cannot merge an empty shard list");
  }
  // Index order = fingerprint order. Accept any input order; sort by
  // range start and then require an exact tiling of [0, count).
  std::vector<ShardResult*> ordered = input;
  // (begin, end) — not begin alone: an empty shard [b, b) must order
  // before a non-empty [b, e) or the tiling walk below would reject a
  // valid tiling depending on std::sort's unspecified tie order.
  std::sort(ordered.begin(), ordered.end(),
            [](const ShardResult* a, const ShardResult* b) {
              return a->shard.begin != b->shard.begin
                         ? a->shard.begin < b->shard.begin
                         : a->shard.end < b->shard.end;
            });

  const SweepOptions& base = ordered.front()->options;
  const std::size_t cells = base.grid.cell_count();
  std::uint64_t expected_begin = 0;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const ShardResult& s = *ordered[i];
    if (!detail::same_scenario_identity(base, s.options)) {
      // Name the shard by its range — positions here follow the sorted
      // order, not the caller's input order, so a bare index would not
      // identify the offending file.
      merge_error(i, "the shard covering [" + std::to_string(s.shard.begin) +
                         ", " + std::to_string(s.shard.end) +
                         ") belongs to a different sweep (seed, grid, "
                         "policy or scenario count differ)");
    }
    if (s.shard.begin != expected_begin) {
      merge_error(i, "shard ranges must tile the index space contiguously: "
                     "expected a shard starting at scenario " +
                         std::to_string(expected_begin) + ", got [" +
                         std::to_string(s.shard.begin) + ", " +
                         std::to_string(s.shard.end) + ")");
    }
    if (s.verdicts.size() != s.shard.count()) {
      merge_error(i, "verdict count does not match the shard's index range");
    }
    if (s.cells.size() != cells) {
      merge_error(i, "cell count does not match the sweep grid");
    }
    expected_begin = s.shard.end;
  }
  if (expected_begin != base.scenario_count) {
    throw ShardError(
        "shards cover only [0, " + std::to_string(expected_begin) +
        ") of the sweep's " + std::to_string(base.scenario_count) +
        " scenarios");
  }

  SweepReport report;
  report.options = base;
  report.cells.resize(cells);
  // Chain the fingerprint across shards by re-folding every verdict's
  // fields in index order: FNV-1a state is sequential, so this — not a
  // combination of the per-shard hashes — is what reproduces the
  // single-process value bit for bit.
  Fingerprint fp;
  std::vector<ScenarioVerdict> verdicts;
  // Reserve unless the single-shard move below adopts the vector whole.
  if (base.keep_verdicts && !(take_verdicts && ordered.size() == 1)) {
    verdicts.reserve(base.scenario_count);
  }
  for (ShardResult* s : ordered) {
    report.totals.merge(s->totals);
    for (std::size_t c = 0; c < cells; ++c) {
      report.cells[c].agg.merge(s->cells[c].agg);
    }
    for (const ScenarioVerdict& v : s->verdicts) fp.add(v);
    if (base.keep_verdicts) {
      if (take_verdicts && ordered.size() == 1) {
        // The single-shard fast path (run_sweep): adopt the vector
        // whole — a full sweep never holds its verdicts twice.
        verdicts = std::move(s->verdicts);
      } else {
        verdicts.insert(verdicts.end(), s->verdicts.begin(),
                        s->verdicts.end());
        if (take_verdicts) {
          // Consume as we go: peak memory stays at the report plus one
          // shard, not the report plus every shard.
          s->verdicts.clear();
          s->verdicts.shrink_to_fit();
        }
      }
    }
    report.elapsed_seconds += s->elapsed_seconds;
  }
  report.fingerprint = fp.value();
  report.verdicts = std::move(verdicts);
  detail::fill_cell_metadata(base, report.cells);
  return report;
}

}  // namespace

SweepReport merge(std::span<const ShardResult> shards) {
  std::vector<ShardResult*> input;
  input.reserve(shards.size());
  for (const ShardResult& s : shards) {
    // Safe cast: merge_shards(..., false) never mutates the pointees.
    input.push_back(const_cast<ShardResult*>(&s));
  }
  return merge_shards(input, /*take_verdicts=*/false);
}

SweepReport merge(std::vector<ShardResult>&& shards) {
  std::vector<ShardResult*> input;
  input.reserve(shards.size());
  for (ShardResult& s : shards) input.push_back(&s);
  return merge_shards(input, /*take_verdicts=*/true);
}

// ---------------------------------------------------------------------------
// Incremental merge.
// ---------------------------------------------------------------------------

void ShardMerger::fold(ShardResult&& shard) {
  report_.totals.merge(shard.totals);
  for (std::size_t c = 0; c < report_.cells.size(); ++c) {
    report_.cells[c].agg.merge(shard.cells[c].agg);
  }
  for (const ScenarioVerdict& v : shard.verdicts) fp_.add(v);
  if (report_.options.keep_verdicts) {
    report_.verdicts.insert(report_.verdicts.end(),
                            std::make_move_iterator(shard.verdicts.begin()),
                            std::make_move_iterator(shard.verdicts.end()));
  }
  report_.elapsed_seconds += shard.elapsed_seconds;
  accepted_scenarios_ += shard.shard.count();
  // Only non-empty shards advance the frontier: an empty shard is a
  // no-op wherever its [b, b) marker sits and must not fake coverage.
  if (shard.shard.count() > 0) expected_begin_ = shard.shard.end;
}

void ShardMerger::drain_pending() {
  // Fold every buffered shard the last fold unblocked; folding one may
  // unblock another, so scan until a full pass makes no progress.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const ShardSpec& s = pending_[i].shard;
      if (s.begin == expected_begin_) {  // empties are never buffered.
        ShardResult next = std::move(pending_[i]);
        pending_.erase(pending_.begin() +
                       static_cast<std::ptrdiff_t>(i));
        fold(std::move(next));
        progressed = true;
        break;  // indices shifted; restart the scan.
      }
    }
  }
}

void ShardMerger::add(ShardResult&& shard) {
  const auto range_of = [](const ShardSpec& s) {
    return "[" + std::to_string(s.begin) + ", " + std::to_string(s.end) +
           ")";
  };
  // Shape checks first — a malformed shard must not corrupt the fold.
  if (shard.shard.begin > shard.shard.end ||
      shard.shard.end > shard.options.scenario_count) {
    throw ShardError("cannot merge the shard covering " +
                     range_of(shard.shard) +
                     ": its range does not lie within the sweep");
  }
  if (shard.verdicts.size() != shard.shard.count()) {
    throw ShardError("cannot merge the shard covering " +
                     range_of(shard.shard) +
                     ": verdict count does not match the shard's index "
                     "range");
  }
  if (!have_base_) {
    report_.options = shard.options;
    report_.cells.resize(shard.options.grid.cell_count());
    if (report_.options.keep_verdicts) {
      report_.verdicts.reserve(report_.options.scenario_count);
    }
    have_base_ = true;
  } else if (!detail::same_scenario_identity(report_.options,
                                             shard.options)) {
    throw ShardError("cannot merge the shard covering " +
                     range_of(shard.shard) +
                     ": it belongs to a different sweep (seed, grid, "
                     "policy or scenario count differ)");
  }
  if (shard.cells.size() != report_.cells.size()) {
    throw ShardError("cannot merge the shard covering " +
                     range_of(shard.shard) +
                     ": cell count does not match the sweep grid");
  }
  if (shard.shard.count() > 0 && shard.shard.begin < expected_begin_) {
    throw ShardError("cannot merge the shard covering " +
                     range_of(shard.shard) +
                     ": it overlaps scenarios already merged (the fold "
                     "has reached scenario " +
                     std::to_string(expected_begin_) + ")");
  }
  if (shard.shard.begin == expected_begin_ || shard.shard.count() == 0) {
    fold(std::move(shard));
    drain_pending();
  } else {
    pending_.push_back(std::move(shard));  // a gap precedes it; wait.
  }
}

SweepReport ShardMerger::finish() {
  if (!have_base_) {
    throw ShardError("cannot merge an empty shard list");
  }
  if (!pending_.empty()) {
    // Name the gap the way the batch merge does: the lowest buffered
    // range is the first shard the tiling is missing a predecessor of.
    const ShardResult* lowest = &pending_.front();
    for (const ShardResult& s : pending_) {
      if (s.shard.begin < lowest->shard.begin) lowest = &s;
    }
    throw ShardError(
        "shard ranges must tile the index space contiguously: expected "
        "a shard starting at scenario " +
        std::to_string(expected_begin_) + ", got [" +
        std::to_string(lowest->shard.begin) + ", " +
        std::to_string(lowest->shard.end) + ")");
  }
  if (expected_begin_ != report_.options.scenario_count) {
    throw ShardError(
        "shards cover only [0, " + std::to_string(expected_begin_) +
        ") of the sweep's " +
        std::to_string(report_.options.scenario_count) + " scenarios");
  }
  report_.fingerprint = fp_.value();
  detail::fill_cell_metadata(report_.options, report_.cells);
  return std::move(report_);
}

// ---------------------------------------------------------------------------
// The single-process convenience.
// ---------------------------------------------------------------------------

SweepReport run_sweep(const SweepOptions& opts) {
  const SweepPlan plan(opts);
  std::vector<ShardResult> whole;
  whole.push_back(run_shard(plan.shard(0, 1), plan.options()));
  return merge(std::move(whole));
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

std::string SweepReport::table() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "%5s %5s %9s %9s %7s %7s %7s %7s %9s %8s\n", "tasks", "U",
                "det-cost", "stop-lat", "n", "sched", "clean", "agree",
                "mean-A", "honored");
  out += line;
  auto pct = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(part) /
                            static_cast<double>(whole);
  };
  for (const CellSummary& c : cells) {
    const SweepAggregate& a = c.agg;
    std::snprintf(line, sizeof(line),
                  "%5zu %5.2f %9s %9s %7llu %6.1f%% %6.1f%% %7s %7.2fms "
                  "%7.1f%%\n",
                  c.task_count, c.utilization,
                  to_string(c.detector_cost).c_str(),
                  to_string(c.stop_poll_latency).c_str(),
                  static_cast<unsigned long long>(a.total),
                  pct(a.rta_schedulable, a.total), pct(a.engine_clean, a.total),
                  a.agreement_violations == 0 ? "yes" : "NO",
                  a.mean_allowance_ms(),
                  pct(a.allowance_honored, a.allowance_feasible));
    out += line;
  }
  std::snprintf(
      line, sizeof(line),
      "total %llu  schedulable %llu  engine-clean %llu  "
      "agreement-violations %llu  allowance-honored %llu/%llu\n",
      static_cast<unsigned long long>(totals.total),
      static_cast<unsigned long long>(totals.rta_schedulable),
      static_cast<unsigned long long>(totals.engine_clean),
      static_cast<unsigned long long>(totals.agreement_violations),
      static_cast<unsigned long long>(totals.allowance_honored),
      static_cast<unsigned long long>(totals.allowance_feasible));
  out += line;
  return out;
}

}  // namespace rtft::sweep
