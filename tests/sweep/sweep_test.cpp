#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>

#include "sched/feasibility.hpp"
#include "support/numeric_locale.hpp"
#include "sweep/generators.hpp"

namespace rtft::sweep {
namespace {

SweepOptions small_options() {
  SweepOptions opts;
  opts.scenario_count = 120;
  opts.workers = 4;
  opts.base_seed = 2006;
  opts.grid.task_counts = {3, 5};
  opts.grid.utilizations = {0.6, 0.9};
  opts.grid.detector_costs = {Duration::zero(), Duration::us(200)};
  return opts;
}

// ---------------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------------

TEST(Generators, SeededSetIsReproducible) {
  RandomTaskSetSpec spec;
  spec.tasks = 6;
  spec.total_utilization = 0.7;
  const sched::TaskSet a = make_seeded_task_set(99, spec);
  const sched::TaskSet b = make_seeded_task_set(99, spec);
  ASSERT_EQ(a.size(), b.size());
  for (sched::TaskId i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cost, b[i].cost);
    EXPECT_EQ(a[i].period, b[i].period);
    EXPECT_EQ(a[i].deadline, b[i].deadline);
    EXPECT_EQ(a[i].priority, b[i].priority);
  }
  // Costs are rounded to whole nanoseconds (floored at 1us), so the
  // realized utilization only approximates the target.
  EXPECT_NEAR(a.utilization(), 0.7, 1e-4);
}

TEST(Generators, DifferentSeedsDiffer) {
  RandomTaskSetSpec spec;
  const sched::TaskSet a = make_seeded_task_set(1, spec);
  const sched::TaskSet b = make_seeded_task_set(2, spec);
  bool any_difference = false;
  for (sched::TaskId i = 0; i < a.size(); ++i) {
    any_difference |= a[i].period != b[i].period || a[i].cost != b[i].cost;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Generators, ScenarioSeedMixesBothInputs) {
  EXPECT_NE(scenario_seed(1, 0), scenario_seed(2, 0));
  EXPECT_NE(scenario_seed(1, 0), scenario_seed(1, 1));
  // Stable across runs/platforms: pin one value as a regression anchor —
  // changing the mixing constants silently re-seeds every sweep.
  EXPECT_EQ(scenario_seed(42, 0), 0xbdd732262feb6e95ULL);
}

// ---------------------------------------------------------------------------
// Grid -> spec mapping.
// ---------------------------------------------------------------------------

TEST(SweepGrid, SpecsCoverCellsRoundRobin) {
  const SweepOptions opts = small_options();
  const std::size_t cells = opts.grid.cell_count();
  ASSERT_EQ(cells, 8u);
  std::vector<std::uint64_t> per_cell(cells, 0);
  for (std::uint64_t i = 0; i < opts.scenario_count; ++i) {
    const ScenarioSpec spec = scenario_spec(opts, i);
    ASSERT_LT(spec.cell, cells);
    ++per_cell[spec.cell];
  }
  for (const std::uint64_t n : per_cell)
    EXPECT_EQ(n, opts.scenario_count / cells);
}

TEST(SweepGrid, SpecIsPureFunctionOfIndex) {
  const SweepOptions opts = small_options();
  const ScenarioSpec a = scenario_spec(opts, 17);
  const ScenarioSpec b = scenario_spec(opts, 17);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.cell, b.cell);
  EXPECT_EQ(a.tasks.tasks, b.tasks.tasks);
  EXPECT_EQ(a.tasks.total_utilization, b.tasks.total_utilization);
  EXPECT_EQ(a.detector_cost, b.detector_cost);
}

// ---------------------------------------------------------------------------
// Determinism: identical options reproduce identical aggregates and
// fingerprints across runs and across worker counts.
// ---------------------------------------------------------------------------

void expect_same_aggregate(const SweepAggregate& a, const SweepAggregate& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.rta_schedulable, b.rta_schedulable);
  EXPECT_EQ(a.engine_clean, b.engine_clean);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_EQ(a.allowance_feasible, b.allowance_feasible);
  EXPECT_EQ(a.allowance_honored, b.allowance_honored);
  EXPECT_EQ(a.detector_clean, b.detector_clean);
  EXPECT_EQ(a.allowance_sum, b.allowance_sum);
}

TEST(Sweep, DeterministicAcrossRuns) {
  const SweepOptions opts = small_options();
  const SweepReport a = run_sweep(opts);
  const SweepReport b = run_sweep(opts);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  expect_same_aggregate(a.totals, b.totals);
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    EXPECT_EQ(a.verdicts[i].seed, b.verdicts[i].seed);
    EXPECT_EQ(a.verdicts[i].rta_schedulable, b.verdicts[i].rta_schedulable);
    EXPECT_EQ(a.verdicts[i].nominal_misses, b.verdicts[i].nominal_misses);
    EXPECT_EQ(a.verdicts[i].allowance, b.verdicts[i].allowance);
  }
}

TEST(Sweep, WorkerCountIndependence) {
  SweepOptions opts = small_options();
  opts.workers = 1;
  const SweepReport serial = run_sweep(opts);
  opts.workers = 7;
  const SweepReport parallel = run_sweep(opts);
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  expect_same_aggregate(serial.totals, parallel.totals);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t c = 0; c < serial.cells.size(); ++c)
    expect_same_aggregate(serial.cells[c].agg, parallel.cells[c].agg);
}

TEST(SweepGrid, DefaultStopLatencyAxisKeepsHistoricalMapping) {
  // A single zero-latency axis must not perturb the cell mapping or the
  // fingerprint: pre-axis sweeps stay bit-for-bit reproducible.
  SweepOptions opts = small_options();
  opts.scenario_count = 40;
  const SweepReport implicit = run_sweep(opts);
  ASSERT_EQ(opts.grid.stop_poll_latencies,
            std::vector<Duration>{Duration::zero()});
  opts.grid.stop_poll_latencies = {Duration::zero()};  // explicit default
  const SweepReport explicit_zero = run_sweep(opts);
  EXPECT_EQ(implicit.fingerprint, explicit_zero.fingerprint);
  for (std::uint64_t i = 0; i < opts.scenario_count; ++i) {
    const ScenarioSpec spec = scenario_spec(opts, i);
    EXPECT_EQ(spec.stop_poll_latency, Duration::zero());
  }
}

TEST(SweepGrid, StopLatencyAxisRoundRobinsFastest) {
  SweepOptions opts = small_options();
  opts.grid.stop_poll_latencies = {Duration::zero(), Duration::us(500),
                                   Duration::ms(2)};
  ASSERT_EQ(opts.grid.cell_count(), 24u);
  for (std::uint64_t i = 0; i < 48; ++i) {
    const ScenarioSpec spec = scenario_spec(opts, i);
    EXPECT_EQ(spec.stop_poll_latency,
              opts.grid.stop_poll_latencies[static_cast<std::size_t>(i % 3)]);
    // The slower axes decompose as before, just scaled by the new one.
    EXPECT_EQ(spec.detector_cost,
              opts.grid.detector_costs[static_cast<std::size_t>((i / 3) % 2)]);
  }
}

TEST(SweepGrid, DefaultMulticoreAxesKeepHistoricalMapping) {
  // Single-value default core/quantum axes must not perturb the cell
  // mapping or the fingerprint: pre-multicore sweeps stay bit-for-bit
  // reproducible.
  SweepOptions opts = small_options();
  opts.scenario_count = 40;
  const SweepReport implicit = run_sweep(opts);
  ASSERT_EQ(opts.grid.core_counts, std::vector<std::size_t>{1});
  ASSERT_EQ(opts.grid.quantizer_resolutions,
            std::vector<Duration>{Duration::ms(1)});
  opts.grid.core_counts = {1};                        // explicit defaults
  opts.grid.quantizer_resolutions = {Duration::ms(1)};
  const SweepReport explicit_defaults = run_sweep(opts);
  EXPECT_EQ(implicit.fingerprint, explicit_defaults.fingerprint);
  for (std::uint64_t i = 0; i < opts.scenario_count; ++i) {
    const ScenarioSpec spec = scenario_spec(opts, i);
    EXPECT_EQ(spec.cores, 1u);
    EXPECT_EQ(spec.quantum, Duration::ms(1));
  }
}

TEST(SweepGrid, QuantumAxisRoundRobinsFastestThenCores) {
  SweepOptions opts = small_options();
  opts.grid.quantizer_resolutions = {Duration::ms(1), Duration::us(500)};
  opts.grid.core_counts = {1, 2};
  ASSERT_EQ(opts.grid.cell_count(), 32u);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const ScenarioSpec spec = scenario_spec(opts, i);
    EXPECT_EQ(spec.quantum,
              opts.grid.quantizer_resolutions[static_cast<std::size_t>(i % 2)]);
    EXPECT_EQ(spec.cores,
              opts.grid.core_counts[static_cast<std::size_t>((i / 2) % 2)]);
    // The slower axes decompose as before, just scaled by the new ones.
    EXPECT_EQ(spec.detector_cost,
              opts.grid.detector_costs[static_cast<std::size_t>((i / 4) % 2)]);
  }
}

TEST(Sweep, QuantizerResolutionChangesTheFingerprint) {
  // A non-default resolution arms nearest-rounding on the release
  // quantizer: the verdicts must move, so the axis can never silently
  // go inert.
  SweepOptions opts = small_options();
  opts.scenario_count = 40;
  const SweepReport exact = run_sweep(opts);
  opts.grid.quantizer_resolutions = {Duration::us(250)};
  const SweepReport coarse = run_sweep(opts);
  EXPECT_NE(exact.fingerprint, coarse.fingerprint);
}

TEST(Sweep, FaultAwarePlacementsSurviveTheSweptCoreFault) {
  // The multicore stage's paired evidence, asserted at sweep level:
  // fault-aware admission is sound (a placement it accepts never misses
  // across the injected fault), and it buys something first-fit does
  // not (some scenario where first-fit's fail-over misses while
  // fault-aware's is clean).
  SweepOptions opts;
  opts.scenario_count = 60;
  opts.workers = 4;
  opts.base_seed = 42;
  opts.grid.task_counts = {8};
  opts.grid.utilizations = {2.0, 2.4};
  opts.grid.detector_costs = {Duration::zero()};
  opts.grid.core_counts = {4};
  const SweepReport report = run_sweep(opts);
  ASSERT_EQ(report.verdicts.size(), opts.scenario_count);
  bool contrast_seen = false;
  std::uint64_t multicore_rows = 0;
  for (const ScenarioVerdict& v : report.verdicts) {
    ASSERT_EQ(v.cores, 4u);
    ++multicore_rows;
    if (v.fa_placement_feasible) {
      EXPECT_TRUE(v.fa_failover_clean) << "scenario " << v.index;
      EXPECT_EQ(v.fa_missed_tasks, 0) << "scenario " << v.index;
    }
    contrast_seen = contrast_seen ||
                    (v.ff_placement_feasible && v.fa_placement_feasible &&
                     !v.ff_failover_clean && v.fa_failover_clean);
  }
  EXPECT_EQ(report.totals.multicore, multicore_rows);
  EXPECT_EQ(report.totals.fa_placed, report.totals.fa_failover_clean);
  EXPECT_TRUE(contrast_seen);
}

TEST(Sweep, StopLatencyChangesOutcomesUnderAStoppingPolicy) {
  // Under instant-stop the detector run injects a top-priority hog whose
  // stop lands only after the poll latency: a long poll must be visible
  // in the verdicts (more lower-priority detector fires while the hog
  // spins). Carried by the fingerprint either way, but assert the raw
  // signal so the axis can never silently go inert again.
  SweepOptions opts = small_options();
  opts.scenario_count = 30;
  opts.grid.task_counts = {5};
  opts.grid.utilizations = {0.9};
  opts.grid.detector_costs = {Duration::zero()};
  opts.detector_policy = core::TreatmentPolicy::kInstantStop;
  opts.grid.stop_poll_latencies = {Duration::zero()};
  const SweepReport fast = run_sweep(opts);
  opts.grid.stop_poll_latencies = {Duration::ms(500)};
  const SweepReport slow = run_sweep(opts);
  std::int64_t fast_faults = 0;
  std::int64_t slow_faults = 0;
  for (const ScenarioVerdict& v : fast.verdicts) {
    fast_faults += v.detector_faults;
  }
  for (const ScenarioVerdict& v : slow.verdicts) {
    slow_faults += v.detector_faults;
  }
  EXPECT_GT(slow_faults, fast_faults);
  EXPECT_NE(fast.fingerprint, slow.fingerprint);
}

TEST(Sweep, DifferentSeedsProduceDifferentFingerprints) {
  SweepOptions opts = small_options();
  opts.scenario_count = 40;
  const SweepReport a = run_sweep(opts);
  opts.base_seed = opts.base_seed + 1;
  const SweepReport b = run_sweep(opts);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(Sweep, BadOptionsThrowBeforeAnyWorkerStarts) {
  SweepOptions opts = small_options();
  opts.grid.task_counts = {3, 0};  // e.g. a trailing comma in a CLI list
  EXPECT_THROW((void)run_sweep(opts), ContractViolation);
  opts = small_options();
  opts.grid.task_counts = {29};  // beyond the 28-slot RTSJ priority range
  EXPECT_THROW((void)run_sweep(opts), ContractViolation);
  opts = small_options();
  opts.grid.utilizations = {-0.5};
  EXPECT_THROW((void)run_sweep(opts), ContractViolation);
  opts = small_options();
  opts.scenario_count = 0;
  EXPECT_THROW((void)run_sweep(opts), ContractViolation);
}

TEST(Sweep, ProgressHookSeesEveryScenarioAndNeverMovesTheFingerprint) {
  SweepOptions opts = small_options();
  opts.scenario_count = 40;
  const SweepReport plain = run_sweep(opts);
  // The hook runs concurrently on worker threads: collect with atomics,
  // assert afterwards.
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> final_done{0};
  std::atomic<bool> total_consistent{true};
  opts.on_progress = [&](std::uint64_t done, std::uint64_t total) {
    calls.fetch_add(1, std::memory_order_relaxed);
    if (total != 40) total_consistent.store(false);
    if (done == total) final_done.store(done);
  };
  const SweepReport observed = run_sweep(opts);
  EXPECT_EQ(calls.load(), 40u);  // one call per scenario
  EXPECT_TRUE(total_consistent.load());
  EXPECT_EQ(final_done.load(), 40u);  // the final call reports completion
  EXPECT_EQ(observed.fingerprint, plain.fingerprint);
}

TEST(Sweep, ProgressHookOnAShardReportsShardLocalTotals) {
  SweepOptions opts = small_options();
  opts.scenario_count = 40;
  std::atomic<std::uint64_t> calls{0};
  std::atomic<bool> total_consistent{true};
  opts.on_progress = [&](std::uint64_t, std::uint64_t total) {
    calls.fetch_add(1, std::memory_order_relaxed);
    if (total != 20) total_consistent.store(false);
  };
  const SweepPlan plan(opts);
  (void)run_shard(plan.shard(0, 2), plan.options());
  EXPECT_EQ(calls.load(), 20u);
  EXPECT_TRUE(total_consistent.load());
}

// ---------------------------------------------------------------------------
// Cross-checks: the analyses and the engine must not contradict each
// other on any swept scenario.
// ---------------------------------------------------------------------------

TEST(SweepCrossCheck, RtaSchedulableScenariosMeetAllDeadlinesInEngine) {
  SweepOptions opts = small_options();
  opts.scenario_count = 200;
  // Stress the boundary: high utilization produces a mix of schedulable
  // and unschedulable sets.
  opts.grid.utilizations = {0.7, 0.85, 0.97};
  const SweepReport report = run_sweep(opts);
  for (const ScenarioVerdict& v : report.verdicts) {
    if (v.rta_schedulable) {
      EXPECT_TRUE(v.engine_clean)
          << "scenario " << v.index << " (seed " << v.seed
          << "): RTA says schedulable but the engine missed "
          << v.nominal_misses << " deadline(s)";
    }
    EXPECT_TRUE(v.agreement);
  }
  EXPECT_EQ(report.totals.agreement_violations, 0u);
  // The sweep must actually exercise both sides of the boundary.
  EXPECT_GT(report.totals.rta_schedulable, 0u);
  EXPECT_LT(report.totals.rta_schedulable, report.totals.total);
}

TEST(SweepCrossCheck, EquitableAllowanceIsHonoredByTheEngine) {
  SweepOptions opts = small_options();
  opts.scenario_count = 150;
  const SweepReport report = run_sweep(opts);
  for (const ScenarioVerdict& v : report.verdicts) {
    if (v.allowance_feasible) {
      EXPECT_TRUE(v.allowance_honored)
          << "scenario " << v.index << " (seed " << v.seed
          << "): overrun of the equitable allowance "
          << to_string(v.allowance) << " caused a deadline miss";
      EXPECT_FALSE(v.allowance.is_negative());
    }
  }
  EXPECT_GT(report.totals.allowance_feasible, 0u);
}

TEST(SweepCrossCheck, RtaVerdictMatchesDirectAnalysis) {
  const SweepOptions opts = small_options();
  for (std::uint64_t i = 0; i < 32; ++i) {
    const ScenarioSpec spec = scenario_spec(opts, i);
    const sched::TaskSet ts = make_seeded_task_set(spec.seed, spec.tasks);
    const ScenarioVerdict v = run_scenario(spec, opts);
    EXPECT_EQ(v.rta_schedulable, sched::is_feasible(ts));
    EXPECT_EQ(v.task_count, ts.size());
    EXPECT_NEAR(v.actual_utilization, ts.utilization(), 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

TEST(SweepReport, TableListsEveryCellAndTotals) {
  SweepOptions opts = small_options();
  opts.scenario_count = 32;
  const SweepReport report = run_sweep(opts);
  const std::string table = report.table();
  EXPECT_NE(table.find("tasks"), std::string::npos);
  EXPECT_NE(table.find("total 32"), std::string::npos);
  // Header + one row per cell + totals line.
  const std::size_t lines = std::count(table.begin(), table.end(), '\n');
  EXPECT_EQ(lines, 1 + report.cells.size() + 1);
}

TEST(SweepReport, TableKeepsDotDecimalsUnderACommaLocale) {
  testsupport::ScopedNumericLocale locale;
  if (!locale.force_comma_decimal()) {
    GTEST_SKIP() << "no comma-decimal locale installed on this host";
  }
  SweepOptions opts = small_options();
  opts.scenario_count = 32;
  const std::string table = run_sweep(opts).table();
  EXPECT_EQ(table.find(','), std::string::npos) << table;
}

}  // namespace
}  // namespace rtft::sweep
