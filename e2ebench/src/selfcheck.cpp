// Self-checks of the benchmark's own machinery: the percentile helper,
// the traced replica against sweep::ScenarioRunner, open-loop lateness,
// and a held-out seed through every gate.
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "load.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace rtft;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void check_percentiles() {
  const Percentiles a = summarize(iota(1000));
  expect(a.n == 1000 && a.median == 500.0 && a.tail_pct == 99.0 &&
             a.tail == 990.0,
         "percentiles: 1000 samples report p99 (10 beyond it)");
  const Percentiles b = summarize(iota(999));
  expect(b.n == 999 && b.tail_pct == 95.0 && b.tail == 950.0,
         "percentiles: 999 samples fall back to p95 (p99 has 9 beyond)");
  const Percentiles c = summarize(iota(20));
  expect(c.tail_pct == 50.0 && c.tail == 10.0,
         "percentiles: 20 samples support only the median");
  const Percentiles d = summarize(iota(19));
  expect(d.n == 19 && d.tail_pct == 0.0,
         "percentiles: 19 samples support no tail at all");
}

void check_replica(const std::string& workload) {
  sweep::SweepOptions opts = sweep_options(workload, 1);
  opts.scenario_count = opts.grid.cell_count();  // one scenario per cell.
  TracedReplica replica(opts);
  SpanLog log;
  // The fingerprint folds every deterministic verdict field.
  sweep::Fingerprint runner_fp, replica_fp;
  for (std::uint64_t i = 0; i < opts.scenario_count; ++i) {
    const sweep::ScenarioSpec spec = sweep::scenario_spec(opts, i);
    runner_fp.add(sweep::run_scenario(spec, opts));
    replica_fp.add(replica.run(spec, log));
  }
  expect(runner_fp.value() == replica_fp.value(),
         "replica: " + workload + " verdicts equal ScenarioRunner's on one "
         "scenario per cell");
}

void check_open_loop_lateness() {
  // A service that answers instantly, but submit() stalls 30 ms once:
  // requests due during the stall must be charged the stall.
  constexpr std::uint64_t kStallAt = 20;
  constexpr double kRate = 1000.0;
  std::vector<double> latency(200, -1.0);
  const OpenLoopOutcome out = run_open_loop<int>(
      kRate, 0.2,
      [&](std::uint64_t k) {
        if (k == kStallAt) {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
        }
        std::promise<int> p;
        p.set_value(0);
        return p.get_future();
      },
      [&](std::uint64_t k, int&&, Clock::time_point due,
          Clock::time_point end) {
        latency[k] = 1e3 * seconds_between(due, end);
      });
  double max_lag = 0.0;
  for (const double l : out.lag_ms) max_lag = std::max(max_lag, l);
  expect(out.sent == 200 && out.latency_ms.size() == 200,
         "open loop: every request sent and collected");
  expect(max_lag >= 25.0, "open loop: generator lateness shows the stall");
  expect(latency[kStallAt + 1] >= 25.0,
         "open loop: a request due during the stall is charged from its due "
         "time");
  expect(latency[190] < 5.0,
         "open loop: requests due after the backlog clears are not");
}

void check_held_out_seed() {
  for (const std::string workload : {"sweep-exec", "sweep-analysis"}) {
    std::string fp[2];
    for (const std::uint64_t seed : {1u, 2u}) {
      RunConfig cfg;
      cfg.workload = workload;
      cfg.seed = seed;
      cfg.seconds = 0.01;  // one w1 and one w2 pass each.
      Result result;
      run_sweep_workload(cfg, result);
      expect(result.correct() && recorded_fingerprint(workload, seed),
             workload + " seed " + std::to_string(seed) +
                 ": every gate holds, recorded fingerprint included");
      fp[seed - 1] = result.info_value("fingerprint");
    }
    expect(!fp[0].empty() && fp[0] != fp[1],
           workload + ": the held-out seed yields a different fingerprint");
  }
  RunConfig cfg;
  cfg.workload = "admission-mixed";
  cfg.seed = 2;
  cfg.seconds = 0.5;
  Result result;
  run_admission_workload(cfg, result);
  expect(result.correct(), "admission-mixed seed 2: every gate holds");
}

}  // namespace

int run_selfchecks() {
  check_percentiles();
  check_replica("sweep-exec");
  check_replica("sweep-analysis");
  check_open_loop_lateness();
  check_held_out_seed();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "selfcheck passed"
                                                   : "selfcheck FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace e2e
