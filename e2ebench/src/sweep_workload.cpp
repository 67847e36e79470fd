// sweep-exec and sweep-analysis: populations of task sets through the
// sweep's coordinator data path (plan -> run_shard -> shard JSON round
// trip -> ShardMerger), timed at 1 and 2 workers.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/treatment.hpp"
#include "sched/allowance.hpp"
#include "sched/feasibility.hpp"
#include "sweep/export.hpp"
#include "sweep/generators.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace rtft;

namespace {

constexpr std::uint64_t kShards = 4;

/// Scenarios per pass, as a multiple of the grid's cell count: about a
/// second and a half of work at one worker, so that one pass averages
/// over enough of the seed's population to keep seeds comparable.
constexpr std::uint64_t kExecPerCell = 16;
constexpr std::uint64_t kAnalysisPerCell = 24;

Duration max_period(const sched::TaskSet& ts) {
  Duration m = Duration::zero();
  for (const auto& t : ts) m = std::max(m, t.period);
  return m;
}

rt::EngineOptions placeholder_engine_options() {
  rt::EngineOptions eopts;
  eopts.horizon = Instant::from_ns(1);  // re-armed before every run.
  return eopts;
}

/// One pass over the workload's population through the coordinator data
/// path, with its stage timings.
struct Pass {
  std::uint64_t fingerprint = 0;
  sweep::SweepAggregate totals;
  std::vector<sweep::ScenarioVerdict> verdicts;
  double seconds = 0.0;
  double json_s = 0.0;
  double load_s = 0.0;
  double merge_s = 0.0;
};

Pass run_pass(const sweep::SweepOptions& base, std::size_t workers,
              SpanLog* log, std::uint64_t pass_id) {
  sweep::SweepOptions opts = base;
  opts.workers = workers;
  Pass out;
  const Clock::time_point t0 = Clock::now();
  const Scope pass_span(log, workers == 1 ? "pass.w1" : "pass.w2", kNoParent,
                        pass_id);
  const sweep::SweepPlan plan(opts);
  sweep::ShardMerger merger;
  for (std::uint64_t i = 0; i < kShards; ++i) {
    sweep::ShardResult shard;
    {
      const Scope s(log, "shard.run", pass_span.id(), i);
      shard = sweep::run_shard(plan.shard(i, kShards), plan.options());
    }
    const Clock::time_point a = Clock::now();
    std::string doc;
    {
      const Scope s(log, "shard.json", pass_span.id(), i);
      doc = sweep::shard_json(shard);
    }
    const Clock::time_point b = Clock::now();
    sweep::ShardResult loaded;
    {
      const Scope s(log, "shard.load", pass_span.id(), i);
      loaded = sweep::load_shard_json(doc);
    }
    const Clock::time_point c = Clock::now();
    {
      const Scope s(log, "shard.merge", pass_span.id(), i);
      merger.add(std::move(loaded));
    }
    const Clock::time_point d = Clock::now();
    out.json_s += seconds_between(a, b);
    out.load_s += seconds_between(b, c);
    out.merge_s += seconds_between(c, d);
  }
  const Clock::time_point e = Clock::now();
  sweep::SweepReport report;
  {
    const Scope s(log, "shard.merge", pass_span.id(), kShards);
    report = merger.finish();
  }
  const Clock::time_point f = Clock::now();
  out.merge_s += seconds_between(e, f);
  out.seconds = seconds_between(t0, f);
  out.fingerprint = report.fingerprint;
  out.totals = report.totals;
  out.verdicts = std::move(report.verdicts);
  return out;
}

/// Set-up: the plan and the population's RTA oracle, one feasibility
/// verdict per scenario of a pass, from the public generator.
std::vector<char> build_rta_oracle(const sweep::SweepOptions& opts) {
  const sweep::SweepPlan plan(opts);
  std::vector<char> rta(plan.scenario_count());
  for (std::uint64_t i = 0; i < plan.scenario_count(); ++i) {
    const sweep::ScenarioSpec spec = sweep::scenario_spec(plan.options(), i);
    rta[i] = sched::is_feasible(
                 sweep::make_seeded_task_set(spec.seed, spec.tasks))
                 ? 1
                 : 0;
  }
  return rta;
}

/// The gates every pass must pass.
void check_pass(const Pass& pass, std::uint64_t reference,
                const std::vector<char>& rta_oracle, const char* label,
                Result& result) {
  const std::string tag = std::string(label) + ": ";
  result.gate(pass.fingerprint == reference,
              tag + "merged fingerprint equals the reference");
  result.gate(pass.totals.agreement_violations == 0,
              tag + "no agreement violations");
  result.gate(pass.totals.allowance_honored == pass.totals.allowance_feasible,
              tag + "allowance_honored equals allowance_feasible");
  bool rta_ok = pass.verdicts.size() == rta_oracle.size();
  for (std::size_t i = 0; rta_ok && i < pass.verdicts.size(); ++i) {
    rta_ok = pass.verdicts[i].rta_schedulable == (rta_oracle[i] != 0);
  }
  result.gate(rta_ok, tag + "every verdict's RTA equals the set-up oracle");
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Workload definitions.
// ---------------------------------------------------------------------------

bool is_sweep_workload(const std::string& name) {
  return name == "sweep-exec" || name == "sweep-analysis";
}

sweep::SweepOptions sweep_options(const std::string& workload,
                                  std::uint64_t seed) {
  sweep::SweepOptions o;
  o.base_seed = seed;
  if (workload == "sweep-exec") {
    // Engine-bound: short task sets, long windows, detectors that fire
    // and stop the overrunning task, and a two-core fail-over stage.
    o.grid.task_counts = {3, 5, 8};
    o.grid.utilizations = {0.5, 0.7, 0.9};
    o.grid.detector_costs = {Duration::zero(), Duration::us(200)};
    o.grid.stop_poll_latencies = {Duration::zero(), Duration::us(500)};
    o.grid.core_counts = {1, 2};
    o.detector_policy = core::TreatmentPolicy::kInstantStop;
    o.horizon_periods = 16;
    o.scenario_count = kExecPerCell * o.grid.cell_count();
  } else {
    // Analysis-bound: large task sets, short windows, the §4.3 system
    // allowance plan and four-core placement.
    o.grid.task_counts = {16, 24, 28};
    o.grid.utilizations = {0.6, 0.75, 0.9};
    o.grid.core_counts = {1, 4};
    o.detector_policy = core::TreatmentPolicy::kSystemAllowance;
    o.horizon_periods = 2;
    o.scenario_count = kAnalysisPerCell * o.grid.cell_count();
  }
  return o;
}

std::optional<std::uint64_t> recorded_fingerprint(const std::string& workload,
                                                  std::uint64_t seed) {
  struct Record {
    const char* workload;
    std::uint64_t seed;
    std::uint64_t count;
    std::uint64_t fingerprint;
  };
  // Merged fingerprints of one pass, recorded from this benchmark's
  // grids. Seed 1 is the development seed, seed 2 the held-out one.
  static constexpr Record kRecords[] = {
      {"sweep-exec", 1, 1152, 0xf4c3e4415ecf9a92ULL},
      {"sweep-exec", 2, 1152, 0x853acbfc7c8befa0ULL},
      {"sweep-analysis", 1, 432, 0x76fc9098eb3cdfd4ULL},
      {"sweep-analysis", 2, 432, 0x12a62efe0d73eedfULL},
  };
  const std::uint64_t count = sweep_options(workload, seed).scenario_count;
  for (const Record& r : kRecords) {
    if (workload == r.workload && seed == r.seed && count == r.count) {
      return r.fingerprint;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// The traced replica of sweep::ScenarioRunner.
// ---------------------------------------------------------------------------

TracedReplica::TracedReplica(const sweep::SweepOptions& opts)
    : opts_(opts), engine_(placeholder_engine_options()) {
  std::size_t max_tasks = 0;
  for (const std::size_t n : opts.grid.task_counts) {
    max_tasks = std::max(max_tasks, n);
  }
  std::size_t max_cores = 1;
  for (const std::size_t m : opts.grid.core_counts) {
    max_cores = std::max(max_cores, m);
  }
  engine_.reserve(max_tasks, 4 * max_tasks + 16);
  handles_.reserve(max_tasks);
  if (max_cores > 1) fleet_.reserve(max_cores, max_tasks, 4 * max_tasks + 16);
}

void TracedReplica::arm(const sched::TaskSet& ts, Duration horizon,
                        Duration stop_poll_latency,
                        std::optional<sched::TaskId> faulty, Duration extra) {
  rt::EngineOptions eopts;
  eopts.horizon = Instant::epoch() + horizon;
  eopts.stop_poll_latency = stop_poll_latency;
  eopts.sink = &counting_;
  counting_.reset();
  engine_.reset(eopts);
  handles_.clear();
  for (sched::TaskId id = 0; id < ts.size(); ++id) {
    rt::CostSpec cost;
    if (faulty && *faulty == id) cost = rt::CostSpec::fixed_overrun(0, extra);
    handles_.push_back(engine_.add_task(ts[id], cost));
  }
}

std::int64_t TracedReplica::run_engine(const char* stage, SpanLog& log,
                                       std::int32_t parent,
                                       std::uint64_t item) {
  {
    const Scope s(&log, stage, parent, item);
    engine_.run();
  }
  std::int64_t events = 0;
  for (std::size_t k = 0; k < trace::kEventKindCount; ++k) {
    events += counting_.total(static_cast<trace::EventKind>(k));
  }
  counters_.engine_events += static_cast<std::uint64_t>(events);
  ++counters_.engine_runs;
  return counting_.total(trace::EventKind::kDeadlineMiss);
}

sweep::ScenarioVerdict TracedReplica::run(const sweep::ScenarioSpec& spec,
                                          SpanLog& log) {
  const Scope scenario(&log, "scenario", kNoParent, spec.index);
  const std::int32_t p = scenario.id();
  const std::uint64_t idx = spec.index;

  sched::TaskSet ts;
  {
    const Scope s(&log, "generate", p, idx);
    ts = sweep::make_seeded_task_set(spec.seed, spec.tasks);
  }
  const Duration horizon = max_period(ts) * opts_.horizon_periods;

  sweep::ScenarioVerdict v;
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

  {
    const Scope s(&log, "rta", p, idx);
    v.rta_schedulable = sched::is_feasible(ts);
  }

  arm(ts, horizon, spec.stop_poll_latency);
  v.nominal_misses = run_engine("engine.nominal", log, p, idx);
  v.engine_clean = v.nominal_misses == 0;
  v.agreement = !v.rta_schedulable || v.engine_clean;

  sched::AllowanceOptions aopts;
  aopts.granularity = opts_.allowance_granularity;
  sched::EquitableAllowance ea;
  {
    const Scope s(&log, "allowance", p, idx);
    ea = sched::equitable_allowance(ts, aopts);
  }
  v.allowance_feasible = ea.feasible_at_zero;
  const sched::TaskId top = ts.by_priority_desc().front();
  if (ea.feasible_at_zero) {
    v.allowance = ea.allowance;
    arm(ts, horizon, spec.stop_poll_latency, top, ea.allowance);
    v.allowance_honored = run_engine("engine.allowance", log, p, idx) == 0;
  }

  core::TreatmentPlan plan;
  {
    const Scope s(&log, "plan", p, idx);
    plan = core::make_treatment_plan_or_degrade(ts, opts_.detector_policy,
                                                v.rta_schedulable, aopts);
  }
  if (plan.detects && plan.stops) {
    arm(ts, horizon, spec.stop_poll_latency, top, max_period(ts));
  } else {
    arm(ts, horizon, spec.stop_poll_latency);
  }
  std::optional<core::DetectorBank> bank;
  if (plan.detects) {
    const Scope s(&log, "detector.arm", p, idx);
    core::DetectorConfig dcfg;
    dcfg.quantizer = spec.quantum == Duration::ms(1)
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
  v.detector_clean = run_engine("engine.detector", log, p, idx) == 0;
  v.detector_faults = bank ? bank->total_faults() : 0;
  counters_.detector_fires += static_cast<std::uint64_t>(
      counting_.total(trace::EventKind::kDetectorFire));
  counters_.detector_faults += static_cast<std::uint64_t>(v.detector_faults);

  if (spec.cores > 1) run_multicore(spec, ts, horizon, v, log, p);
  ++counters_.scenarios;
  return v;
}

void TracedReplica::run_multicore(const sweep::ScenarioSpec& spec,
                                  const sched::TaskSet& ts, Duration horizon,
                                  sweep::ScenarioVerdict& v, SpanLog& log,
                                  std::int32_t parent) {
  rt::EngineOptions eopts;  // no sink: verdicts come from engine stats.
  eopts.horizon = Instant::epoch() + horizon;
  const Duration fault_after = Duration::ns(static_cast<std::int64_t>(
      opts_.core_fault_fraction * static_cast<double>(horizon.count())));

  const auto run_one = [&](const multicore::Partitioner& strategy,
                           const char* place_stage, const char* fleet_stage,
                           bool& placed, bool& clean,
                           std::int64_t& missed_tasks,
                           std::int64_t& lost_jobs) {
    multicore::Placement placement;
    {
      const Scope s(&log, place_stage, parent, spec.index);
      placement = strategy.place(ts, spec.cores);
    }
    placed = placement.feasible;
    if (!placement.feasible) return;
    multicore::MultiRunReport report;
    {
      const Scope s(&log, fleet_stage, parent, spec.index);
      fleet_.reset(spec.cores, eopts);
      fleet_.add_placed(ts, placement);
      multicore::CoreFaultPlan fault;
      if (fault_after.is_positive() && fault_after < horizon) {
        const std::vector<double> load =
            multicore::primary_utilization(ts, placement, spec.cores);
        std::size_t victim = 0;
        for (std::size_t c = 1; c < load.size(); ++c) {
          if (load[c] > load[victim]) victim = c;
        }
        fault.core = victim;
        fault.at = Instant::epoch() + fault_after;
      }
      report = fleet_.run_with_fault(fault);
    }
    clean = report.failover_clean;
    missed_tasks = report.missed_tasks;
    lost_jobs = report.total_lost_jobs;
    for (std::size_t c = 0; c < spec.cores; ++c) {
      const rt::Engine& core = fleet_.core(c);
      for (rt::TaskHandle h = 0; h < core.task_count(); ++h) {
        counters_.fleet_jobs +=
            static_cast<std::uint64_t>(core.stats(h).released);
      }
    }
    ++counters_.fleet_runs;
    counters_.lost_jobs += static_cast<std::uint64_t>(report.total_lost_jobs);
  };

  run_one(first_fit_, "place.ff", "fleet.ff", v.ff_placement_feasible,
          v.ff_failover_clean, v.ff_missed_tasks, v.ff_lost_jobs);
  ++counters_.fa_attempts;
  run_one(fault_aware_, "place.fa", "fleet.fa", v.fa_placement_feasible,
          v.fa_failover_clean, v.fa_missed_tasks, v.fa_lost_jobs);
  if (v.fa_placement_feasible) ++counters_.fa_placed;
}

// ---------------------------------------------------------------------------
// The workload.
// ---------------------------------------------------------------------------

namespace {

double self_ns(const std::map<std::string, SpanLog::Totals>& t,
               const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.self_ns;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void run_sweep_workload(const RunConfig& cfg, Result& result) {
  const sweep::SweepOptions opts = sweep_options(cfg.workload, cfg.seed);
  const std::uint64_t count = opts.scenario_count;

  // Set-up: the plan plus the population's RTA oracle. It is repeated
  // after every pair of passes, so its median spans the whole run.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    std::vector<char> oracle = build_rta_oracle(opts);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    return oracle;
  };
  const std::vector<char> rta_oracle = set_up();

  // Warm-up, untimed: the direct single-process sweep gives the
  // reference fingerprint every sharded pass must reproduce.
  sweep::SweepOptions direct = opts;
  direct.workers = 2;
  const std::uint64_t reference = sweep::run_sweep(direct).fingerprint;
  result.info("fingerprint", hex(reference));
  result.info("pass_scenarios", std::to_string(count));
  if (const auto rec = recorded_fingerprint(cfg.workload, cfg.seed)) {
    result.gate(*rec == reference,
                "reference fingerprint equals the recorded " + hex(*rec));
  }

  // Seconds spent in w1 and w2 passes; every pass has `count` scenarios.
  double pass_s[2] = {0.0, 0.0};
  std::uint64_t pass_n[2] = {0, 0};
  double replica_s = 0.0;
  std::uint64_t replica_n = 0;
  double json_s = 0.0, load_s = 0.0, merge_s = 0.0;
  std::uint64_t passes = 0;
  // Traced runs interleave a replica pass with each w1/w2 pair, so the
  // tracing overhead compares passes made under the same machine load.
  SpanLog pass_log, log;
  SpanLog* plog = cfg.trace ? &pass_log : nullptr;
  std::optional<TracedReplica> replica;
  if (cfg.trace) replica.emplace(opts);
  const sweep::SweepPlan plan(opts);
  const Clock::time_point start = Clock::now();
  while (pass_n[0] < 2 || seconds_between(start, Clock::now()) < cfg.seconds) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      const Pass pass = run_pass(opts, workers, plog, passes);
      check_pass(pass, reference, rta_oracle,
                 workers == 1 ? "pass w1" : "pass w2", result);
      pass_s[workers - 1] += pass.seconds;
      ++pass_n[workers - 1];
      json_s += pass.json_s;
      load_s += pass.load_s;
      merge_s += pass.merge_s;
      ++passes;
      result.attempted += count;
      result.failed += pass.totals.agreement_violations;
    }
    result.gate(set_up() == rta_oracle, "set-up is deterministic");
    if (!cfg.trace) continue;
    // Traced replica: every scenario of the pass re-driven stage by
    // stage on one thread, folded with sweep::Fingerprint.
    const Clock::time_point t0 = Clock::now();
    sweep::Fingerprint fp;
    std::uint64_t violations = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const sweep::ScenarioVerdict v =
          replica->run(sweep::scenario_spec(plan.options(), i), log);
      fp.add(v);
      if (!v.agreement) ++violations;
    }
    replica_s += seconds_between(t0, Clock::now());
    ++replica_n;
    result.gate(fp.value() == reference,
                "traced replica fingerprint equals the untraced one");
    result.gate(violations == 0, "traced replica: no agreement violations");
  }
  // The run's mean rates: all scenarios over all pass time. Steadier
  // across runs than the median pass on a machine whose speed drifts.
  const double w1 = static_cast<double>(pass_n[0] * count) / pass_s[0];
  const double w2 = static_cast<double>(pass_n[1] * count) / pass_s[1];

  if (!cfg.trace) {
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("throughput.w1", w1, "1/s");
    result.metric("throughput.w2", w2, "1/s");
    return;
  }

  std::map<std::string, SpanLog::Totals> t = log.totals();
  const ReplicaCounters& c = replica->counters();
  const auto n = static_cast<double>(c.scenarios);
  const double engine_ns = self_ns(t, "engine.nominal") +
                           self_ns(t, "engine.allowance") +
                           self_ns(t, "engine.detector");
  const double fleet_ns = self_ns(t, "fleet.ff") + self_ns(t, "fleet.fa");
  const double analysis_ns = self_ns(t, "rta") + self_ns(t, "allowance") +
                             self_ns(t, "plan") + self_ns(t, "place.ff") +
                             self_ns(t, "place.fa");
  const auto scen = t.find("scenario");
  const double scenario_ns = scen == t.end() ? 0.0 : scen->second.total_ns;
  const auto passes_d = static_cast<double>(passes);

  result.metric("runtime.engine.ns_per_event",
                ratio(engine_ns, static_cast<double>(c.engine_events)), "ns");
  result.metric("runtime.engine.events_per_scenario",
                ratio(static_cast<double>(c.engine_events), n), "count");
  result.metric("runtime.engine.us_per_scenario", ratio(engine_ns / 1e3, n),
                "us");
  result.metric("core.detector.fires_per_scenario",
                ratio(static_cast<double>(c.detector_fires), n), "count");
  result.metric("core.detector.faults_per_scenario",
                ratio(static_cast<double>(c.detector_faults), n), "count");
  result.metric("core.treatment.plan_us", mean_us(t, "plan"), "us");
  result.metric("sched.rta.us_per_call", mean_us(t, "rta"), "us");
  result.metric("sched.allowance.us_per_call", mean_us(t, "allowance"), "us");
  result.metric("sweep.generate.us_per_call", mean_us(t, "generate"), "us");
  result.metric("sweep.scenario.us", mean_us(t, "scenario", false), "us");
  result.metric("sweep.shard_json.ms", json_s * 1e3 / passes_d, "ms");
  result.metric("sweep.load_shard.ms", load_s * 1e3 / passes_d, "ms");
  result.metric("sweep.merge.ms", merge_s * 1e3 / passes_d, "ms");
  result.metric("sweep.scaling_eff.w2", ratio(w2, 2.0 * w1), "ratio");
  result.metric("sweep.share.engine", ratio(engine_ns + fleet_ns, scenario_ns),
                "ratio");
  result.metric("sweep.share.analysis", ratio(analysis_ns, scenario_ns),
                "ratio");
  result.metric("multicore.place_ff.us", mean_us(t, "place.ff"), "us");
  result.metric("multicore.place_fa.us", mean_us(t, "place.fa"), "us");
  result.metric("multicore.fa_placed_frac",
                ratio(static_cast<double>(c.fa_placed),
                      static_cast<double>(c.fa_attempts)),
                "ratio");
  result.metric("multicore.fleet.ns_per_job",
                ratio(fleet_ns, static_cast<double>(c.fleet_jobs)), "ns");
  result.metric("multicore.lost_jobs_per_run",
                ratio(static_cast<double>(c.lost_jobs),
                      static_cast<double>(c.fleet_runs)),
                "count");
  result.metric("trace.overhead_frac",
                w1 * replica_s / static_cast<double>(replica_n * count) - 1.0,
                "ratio");

  // Spans go to disk only now, after every measurement.
  const std::string path =
      cfg.out_dir + "/spans-" + cfg.workload + "-seed" +
      std::to_string(cfg.seed) + ".csv";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs("thread,id,parent,name,item,start_ns,end_ns\n", f);
    pass_log.write_csv(f, 0);
    log.write_csv(f, 1);
    std::fclose(f);
  }
}

}  // namespace e2e
