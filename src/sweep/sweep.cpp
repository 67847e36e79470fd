#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "common/strings.hpp"
#include "core/detector.hpp"
#include "runtime/engine.hpp"
#include "runtime/quantize.hpp"
#include "sched/allowance.hpp"
#include "sched/feasibility.hpp"
#include "sched/priority.hpp"
#include "sched/response_time.hpp"

namespace rtft::sweep {
namespace {

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
  spec.detector_cost = g.detector_costs[d_i];
  spec.stop_poll_latency = g.stop_poll_latencies[s_i];
  spec.cores = g.core_counts[m_i];
  spec.quantum = g.quantizer_resolutions[q_i];
  return spec;
}

// ---------------------------------------------------------------------------
// One scenario.
// ---------------------------------------------------------------------------

ScenarioRunner::ScenarioRunner(const SweepOptions& opts) : opts_(opts) {
  // Pre-size the engine from the grid so even the worker's first run
  // allocates nothing mid-simulation. The busiest draw the grid can
  // produce releases tasks x ceil(horizon / min period) jobs — that
  // bound sizes the per-task outcome logs (Engine::add_task reserves
  // them from the actual horizon and period). The event queue only ever
  // holds *outstanding* events — one release per task, plus detector
  // timers and stop effects (the running job's end is never queued) — so
  // its hint is a small multiple of the largest swept task count.
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
  aopts.granularity = SweepOptions::allowance_granularity;
  const sched::EquitableAllowance ea = sched::equitable_allowance(ts, aopts);
  v.allowance_feasible = ea.feasible_at_zero;
  if (ea.feasible_at_zero) {
    v.allowance = ea.allowance;
    const sched::TaskId top = ts.by_priority_desc().front();
    arm(ts,
        v.engine_clean ? overrun_run_end(ts, ea.allowance, horizon) : horizon,
        top, ea.allowance);
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
  //    the historical default-grid fingerprint) unchanged. A plan that
  //    detects nothing would repeat stage 2, so it takes its verdict.
  core::TreatmentPlan plan = core::make_treatment_plan_or_degrade(
      ts, opts_.detector_policy, v.rta_schedulable, aopts);
  if (plan.detects) {
    if (plan.stops) {
      arm(ts, horizon, ts.by_priority_desc().front(), max_period(ts));
    } else {
      arm(ts, horizon);
    }
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
    const core::DetectorBank bank(engine_, handles_,
                                  std::move(plan.thresholds), dcfg,
                                  std::move(handler));
    engine_.run();
    v.detector_clean = total_misses() == 0;
    v.detector_faults = bank.total_faults();
  } else {
    v.detector_clean = v.engine_clean;
  }

  // 5. Multicore stage: partitioned placement plus mid-run core
  //    fail-over. Only cells that sweep cores > 1 pay for it;
  //    single-core cells keep the historical verdict exactly.
  if (spec.cores > 1) run_multicore(spec, ts, horizon, v);
  return v;
}

void ScenarioRunner::run_multicore(const ScenarioSpec& spec,
                                   const sched::TaskSet& ts,
                                   Duration horizon, ScenarioVerdict& v) {
  // Engine statistics are the only verdict source here, so the stage
  // runs with no sink, like every other stage.
  rt::EngineOptions eopts;
  eopts.horizon = Instant::epoch() + horizon;

  // Deterministic fault date: mid-horizon, so always inside it. The
  // double product is exact IEEE arithmetic on integral inputs, so
  // every platform computes the same instant.
  const Duration fault_after = Duration::ns(static_cast<std::int64_t>(
      SweepOptions::core_fault_fraction *
      static_cast<double>(horizon.count())));

  // Fault-aware placement keeps first-fit's primaries, so it is
  // infeasible wherever first-fit is.
  const multicore::Placement ff = first_fit_.place(ts, spec.cores);
  v.ff_placement_feasible = ff.feasible;
  if (!ff.feasible) return;
  const multicore::Placement fa =
      fault_aware_.place_backups(ts, spec.cores, ff);
  v.fa_placement_feasible = fa.feasible;

  // Kill the busiest core of the shared primaries: highest utilization,
  // ties to the lowest index — the worst single failure the placement
  // can suffer under the single-fault hypothesis.
  const std::vector<double> load =
      multicore::primary_utilization(ts, ff, spec.cores);
  std::size_t victim = 0;
  for (std::size_t c = 1; c < load.size(); ++c) {
    if (load[c] > load[victim]) victim = c;
  }
  const auto run_one = [&](const multicore::Placement& placement,
                           bool& clean, std::int64_t& missed_tasks,
                           std::int64_t& lost_jobs) {
    fleet_.reset(spec.cores, eopts);
    fleet_.add_placed(ts, placement);
    const multicore::MultiRunReport report =
        fleet_.run_with_fault({victim, Instant::epoch() + fault_after});
    clean = report.failover_clean;
    missed_tasks = report.missed_tasks;
    lost_jobs = report.total_lost_jobs;
  };

  run_one(ff, v.ff_failover_clean, v.ff_missed_tasks, v.ff_lost_jobs);
  if (!fa.feasible) return;
  // The same set, fleet, horizon, fault and placement make the same run.
  if (fa.primary == ff.primary && fa.backup == ff.backup) {
    v.fa_failover_clean = v.ff_failover_clean;
    v.fa_missed_tasks = v.ff_missed_tasks;
    v.fa_lost_jobs = v.ff_lost_jobs;
  } else {
    run_one(fa, v.fa_failover_clean, v.fa_missed_tasks, v.fa_lost_jobs);
  }
}

Duration overrun_run_end(const sched::TaskSet& ts, Duration overrun,
                         Duration horizon) {
  // The demand overrun + sum ceil(t/Tj)*Cj is the same whichever task
  // carries the overrun, so the lowest-priority task's job 0 dates it.
  const sched::PriorityView view(ts);
  const std::size_t low = view.size() - 1;
  const sched::RtaResult busy =
      sched::busy_period(view, low, {}, {.pos = low, .one = overrun});
  const bool closes = busy.bounded && busy.jobs_examined == 1;
  return closes ? std::min(busy.wcrt, horizon) : horizon;
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
  // The cell count must be positive and fit in 64 bits: every axis is
  // non-empty and no running product passes 2^64 - 1.
  const SweepGrid& g = opts.grid;
  std::uint64_t cells = 1;
  for (const std::size_t n :
       {g.task_counts.size(), g.utilizations.size(), g.detector_costs.size(),
        g.stop_poll_latencies.size(), g.core_counts.size(),
        g.quantizer_resolutions.size()}) {
    RTFT_EXPECTS(n > 0, "every sweep grid axis needs at least one value");
    RTFT_EXPECTS(cells <= std::numeric_limits<std::uint64_t>::max() / n,
                 "the sweep grid's cell count must fit in 64 bits");
    cells *= n;
  }
  RTFT_EXPECTS(opts.horizon_periods > 0, "horizon must cover >= 1 period");
  // Generated sets take unique DM priorities from the RTSJ range, which
  // bounds the task count.
  constexpr std::size_t kMaxTasks =
      static_cast<std::size_t>(sched::kMaxRtPriority - sched::kMinRtPriority) +
      1;
  for (const std::size_t n : opts.grid.task_counts)
    RTFT_EXPECTS(n > 0 && n <= kMaxTasks,
                 "every swept task count must be in [1, 28] (the RTSJ "
                 "priority range)");
  // The cap also keeps every generated cost (u x period) within int64.
  for (const double u : opts.grid.utilizations)
    RTFT_EXPECTS(u > 0.0 && u <= static_cast<double>(kMaxCores),
                 "every swept utilization must be in (0, 64]");
  for (const Duration c : opts.grid.detector_costs)
    RTFT_EXPECTS(!c.is_negative(), "detector cost must be non-negative");
  for (const Duration l : opts.grid.stop_poll_latencies)
    RTFT_EXPECTS(!l.is_negative(), "stop-poll latency must be non-negative");
  for (const std::size_t m : opts.grid.core_counts)
    RTFT_EXPECTS(m >= 1 && m <= kMaxCores,
                 "every swept core count must be in [1, 64]");
  for (const Duration q : opts.grid.quantizer_resolutions)
    RTFT_EXPECTS(q.is_positive(), "quantizer resolution must be positive");
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
    // One reusable engine per worker: scenarios share event-heap and
    // task-slot storage instead of reallocating per run.
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
  result.verdicts = std::move(verdicts);
  detail::summarize(result);
  result.elapsed_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

namespace detail {

void summarize(ShardResult& r) {
  r.totals = {};
  r.cells.assign(r.options.grid.cell_count(), CellSummary{});
  for (std::size_t c = 0; c < r.cells.size(); ++c) {
    const ScenarioSpec spec = scenario_spec(r.options, c);
    CellSummary& cell = r.cells[c];
    cell.task_count = spec.tasks.tasks;
    cell.utilization = spec.tasks.total_utilization;
    cell.detector_cost = spec.detector_cost;
    cell.stop_poll_latency = spec.stop_poll_latency;
    cell.cores = spec.cores;
    cell.quantum = spec.quantum;
  }
  Fingerprint fp;
  for (const ScenarioVerdict& v : r.verdicts) {
    RTFT_EXPECTS(v.cell < r.cells.size(),
                 "every verdict's cell must lie within the grid");
    r.totals.add(v);
    r.cells[v.cell].agg.add(v);
    fp.add(v);
  }
  r.fingerprint = fp.value();
}

bool same_scenario_identity(const SweepOptions& a, const SweepOptions& b) {
  return a.scenario_count == b.scenario_count && a.base_seed == b.base_seed &&
         a.horizon_periods == b.horizon_periods &&
         a.detector_policy == b.detector_policy && a.grid == b.grid;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Merging shards back into one report.
// ---------------------------------------------------------------------------

void ShardMerger::fold(ShardResult&& shard) {
  report_.totals.merge(shard.totals);
  for (std::size_t c = 0; c < report_.cells.size(); ++c) {
    report_.cells[c].agg.merge(shard.cells[c].agg);
  }
  for (const ScenarioVerdict& v : shard.verdicts) fp_.add(v);
  if (report_.verdicts.empty()) {
    // The first shard's vector is adopted whole: a whole-sweep shard
    // (run_sweep) never has its verdicts held twice.
    report_.verdicts = std::move(shard.verdicts);
  } else {
    report_.verdicts.insert(report_.verdicts.end(),
                            std::make_move_iterator(shard.verdicts.begin()),
                            std::make_move_iterator(shard.verdicts.end()));
  }
  report_.elapsed_seconds += shard.elapsed_seconds;
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
      if (pending_[i].shard.begin == expected_begin_) {  // never empty.
        ShardResult next = std::move(pending_[i]);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        fold(std::move(next));
        progressed = true;
        break;  // indices shifted; restart the scan.
      }
    }
  }
}

void ShardMerger::add(ShardResult&& shard) {
  const ShardSpec& s = shard.shard;
  const auto reject = [&s](const std::string& why) {
    throw ShardError("cannot merge the shard covering [" +
                     std::to_string(s.begin) + ", " + std::to_string(s.end) +
                     "): " + why);
  };
  // Shape checks first — a malformed shard must not corrupt the fold.
  if (s.begin > s.end || s.end > shard.options.scenario_count) {
    reject("its range does not lie within the sweep");
  }
  if (shard.verdicts.size() != s.count()) {
    reject("verdict count does not match the shard's index range");
  }
  if (shard.cells.size() != shard.options.grid.cell_count()) {
    reject("cell count does not match the sweep grid");
  }
  if (!have_base_) {
    // The first shard fixes the identity and the cells' coordinates.
    report_.options = shard.options;
    report_.cells = shard.cells;
    for (CellSummary& cell : report_.cells) cell.agg = {};
    have_base_ = true;
  } else if (!detail::same_scenario_identity(report_.options, shard.options)) {
    reject("it belongs to a different sweep (seed, grid, policy or scenario "
           "count differ)");
  }
  if (s.count() > 0 && s.begin < expected_begin_) {
    reject("it overlaps scenarios already merged (the fold has reached "
           "scenario " + std::to_string(expected_begin_) + ")");
  }
  if (s.begin == expected_begin_ || s.count() == 0) {
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
    // The lowest buffered range is the first shard the tiling is
    // missing a predecessor of.
    const ShardSpec* lowest = &pending_.front().shard;
    for (const ShardResult& r : pending_) {
      if (r.shard.begin < lowest->begin) lowest = &r.shard;
    }
    throw ShardError(
        "shard ranges must tile the index space contiguously: expected "
        "a shard starting at scenario " +
        std::to_string(expected_begin_) + ", got [" +
        std::to_string(lowest->begin) + ", " + std::to_string(lowest->end) +
        ")");
  }
  if (expected_begin_ != report_.options.scenario_count) {
    throw ShardError(
        "shards cover only [0, " + std::to_string(expected_begin_) +
        ") of the sweep's " +
        std::to_string(report_.options.scenario_count) + " scenarios");
  }
  report_.shard = {0, 1, 0, report_.options.scenario_count};
  report_.fingerprint = fp_.value();
  return std::move(report_);
}

SweepReport merge(std::vector<ShardResult> shards) {
  ShardMerger merger;
  for (ShardResult& shard : shards) merger.add(std::move(shard));
  return merger.finish();
}

// ---------------------------------------------------------------------------
// The single-process convenience.
// ---------------------------------------------------------------------------

SweepReport run_sweep(const SweepOptions& opts) {
  const SweepPlan plan(opts);
  ShardMerger merger;
  merger.add(run_shard(plan.shard(0, 1), plan.options()));
  return merger.finish();
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

std::string ShardResult::table() const {
  const auto pct = [](std::uint64_t part, std::uint64_t whole) {
    const double share = whole == 0 ? 0.0
                                    : 100.0 * static_cast<double>(part) /
                                          static_cast<double>(whole);
    return format_fixed(share, 1) + '%';
  };
  std::vector<std::vector<std::string>> rows = {
      {"tasks", "U", "det-cost", "stop-lat", "n", "sched", "clean", "agree",
       "mean-A", "honored"}};
  for (const CellSummary& c : cells) {
    const SweepAggregate& a = c.agg;
    rows.push_back({std::to_string(c.task_count),
                    format_fixed(c.utilization, 2), to_string(c.detector_cost),
                    to_string(c.stop_poll_latency), std::to_string(a.total),
                    pct(a.rta_schedulable, a.total),
                    pct(a.engine_clean, a.total),
                    a.agreement_violations == 0 ? "yes" : "NO",
                    format_fixed(a.mean_allowance_ms(), 2) + "ms",
                    pct(a.allowance_honored, a.allowance_feasible)});
  }
  return format_table(rows) + "total " + std::to_string(totals.total) +
         "  schedulable " + std::to_string(totals.rta_schedulable) +
         "  engine-clean " + std::to_string(totals.engine_clean) +
         "  agreement-violations " +
         std::to_string(totals.agreement_violations) +
         "  allowance-honored " + std::to_string(totals.allowance_honored) +
         '/' + std::to_string(totals.allowance_feasible) + '\n';
}

}  // namespace rtft::sweep
