// Distributed sweep driver — runs one sweep as a fleet of sweep_runner
// worker processes with crash re-issue, straggler speculation and
// checkpoint resume, then prints the same report (and fingerprint) the
// single-process run would have produced.
//
//   sweep_coordinator --runner BIN --output-dir DIR
//                     [--scenarios N] [--seed S] [--workers W]
//                     [--tasks ...] [--util ...] [--detector-cost-us ...]
//                     [--stop-latency-us ...] [--cores ...]
//                     [--quantum-us ...]
//                     [--partitioner both|first-fit|fault-aware]
//                     [--core-fault F] [--policy NAME]
//                     [--horizon-periods K]
//                     [--shards M] [--max-procs P] [--retry-budget R]
//                     [--straggler-factor F]
//                     [--min-straggler-timeout-ms MS]
//                     [--poll-interval-ms MS] [--progress] [--quiet]
//
// The sweep-defining flags are the same ones sweep_runner takes (shared
// sweep/cli.hpp parser); --workers is the thread count *inside each
// worker process*, --max-procs the number of concurrent processes. An
// unknown flag dies with "error: unknown flag '<flag>'", exit 2.
//
// The output directory holds one shard-<i>.json per completed shard.
// These are the checkpoints: re-running the same command after killing
// the coordinator adopts every valid file and computes only what is
// missing. A worker that dies — or stalls past the straggler timeout —
// has its range re-issued up to --retry-budget extra attempts; a shard
// failing every attempt aborts the run with exit 2.
//
// Lifecycle lines (launch, re-issue, resume, straggler kills) go to
// stderr; --quiet drops them. --progress adds the live scenario
// aggregate across all workers (same format as sweep_runner's).
// Exit code: 0 sound, 1 soundness violation in the merged report, 2 on
// any error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "sweep/cli.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace rtft;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --runner BIN --output-dir DIR\n"
      "          [--scenarios N] [--seed S] [--workers W]\n"
      "          [--tasks n1,n2,...] [--util u1,u2,...]\n"
      "          [--detector-cost-us c1,c2,...]\n"
      "          [--stop-latency-us l1,l2,...]\n"
      "          [--cores m1,m2,...] [--quantum-us q1,q2,...]\n"
      "          [--partitioner both|first-fit|fault-aware]\n"
      "          [--core-fault F] [--policy NAME] [--horizon-periods K]\n"
      "          [--shards M] [--max-procs P] [--retry-budget R]\n"
      "          [--straggler-factor F] [--min-straggler-timeout-ms MS]\n"
      "          [--poll-interval-ms MS] [--progress] [--quiet]\n",
      argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  sweep::SweepOptions opts;
  sweep::CoordinatorOptions copts;
  bool progress = false;
  bool quiet = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (sweep::cli::apply_sweep_flag(arg, value, opts)) {
        continue;
      } else if (arg == "--runner") {
        copts.runner = value();
      } else if (arg == "--output-dir") {
        copts.output_dir = value();
      } else if (arg == "--shards") {
        copts.shards = sweep::cli::parse_u64("--shards", value(), 1, 1 << 20);
      } else if (arg == "--max-procs") {
        copts.max_procs = static_cast<std::size_t>(sweep::cli::parse_u64(
            "--max-procs", value(), 1, sweep::cli::kMaxWorkers));
      } else if (arg == "--retry-budget") {
        copts.retry_budget = static_cast<int>(
            sweep::cli::parse_u64("--retry-budget", value(), 0, 1000));
      } else if (arg == "--straggler-factor") {
        // 0 disables straggler kills, so this one scalar flag may be 0.
        const std::string v = value();
        copts.straggler_factor =
            v == "0" ? 0.0
                     : sweep::cli::parse_positive_double("--straggler-factor",
                                                         v);
      } else if (arg == "--min-straggler-timeout-ms") {
        copts.min_straggler_timeout =
            Duration::ms(static_cast<std::int64_t>(sweep::cli::parse_u64(
                "--min-straggler-timeout-ms", value(), 1, 86'400'000)));
      } else if (arg == "--poll-interval-ms") {
        copts.poll_interval =
            Duration::ms(static_cast<std::int64_t>(sweep::cli::parse_u64(
                "--poll-interval-ms", value(), 1, 60'000)));
      } else if (arg == "--progress") {
        progress = true;
      } else if (arg == "--quiet") {
        quiet = true;
      } else {
        std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
        return 2;
      }
    }
  } catch (const sweep::cli::ArgError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (copts.runner.empty() || copts.output_dir.empty()) usage(argv[0]);

  if (!quiet) {
    copts.on_log = [](const std::string& line) {
      std::fprintf(stderr, "coordinator: %s\n", line.c_str());
    };
  }
  if (progress) {
    // The coordinator aggregate may regress when a worker dies (its
    // in-flight scenarios are re-run); the printer passes backward
    // jumps through, keeping the display honest.
    copts.on_progress = sweep::cli::stderr_progress_printer();
  }

  sweep::CoordinatorResult result;
  try {
    sweep::ProcessTransport transport;
    sweep::Coordinator coordinator(opts, std::move(copts), transport);
    result = coordinator.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const sweep::SweepReport& report = result.report;
  std::printf(
      "coordinated sweep: %llu scenarios over %llu shard(s): "
      "%llu resumed, %llu worker(s) launched, %llu re-issued, "
      "%llu straggler kill(s), %llu invalid file(s)\n\n",
      static_cast<unsigned long long>(report.options.scenario_count),
      static_cast<unsigned long long>(result.stats.shards),
      static_cast<unsigned long long>(result.stats.resumed),
      static_cast<unsigned long long>(result.stats.launched),
      static_cast<unsigned long long>(result.stats.reissued),
      static_cast<unsigned long long>(result.stats.straggler_kills),
      static_cast<unsigned long long>(result.stats.invalid_files));
  std::fputs(report.table().c_str(), stdout);
  std::printf("\nfingerprint %016llx\n",
              static_cast<unsigned long long>(report.fingerprint));

  // Same soundness contract as sweep_runner: the distributed run is a
  // drop-in for the single-process one, exit code included.
  const bool sound =
      report.totals.agreement_violations == 0 &&
      report.totals.allowance_honored == report.totals.allowance_feasible;
  return sound ? 0 : 1;
}
