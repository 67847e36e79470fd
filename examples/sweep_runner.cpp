// Batch scenario sweep CLI — thousands of random task systems through the
// analyses and the virtual-time engine, on a worker pool.
//
//   sweep_runner [--scenarios N] [--workers W] [--seed S]
//                [--tasks n1,n2,...] [--util u1,u2,...]
//                [--detector-cost-us c1,c2,...]
//                [--stop-latency-us l1,l2,...]
//                [--cores m1,m2,...] [--quantum-us q1,q2,...]
//                [--partitioner both|first-fit|fault-aware]
//                [--core-fault F] [--policy NAME] [--horizon-periods K]
//                [--verdicts] [--full-traces] [--progress]
//                [--csv FILE] [--cells-csv FILE] [--json FILE]
//                [--shard I/N [--emit-shard FILE]]
//   sweep_runner --merge FILE...
//
// Defaults run 1000 scenarios on 4 workers over the default grid
// (3/5/8 tasks x U 0.5/0.7/0.9 x free detectors x zero stop latency).
// The summary ends with a deterministic fingerprint: identical arguments
// reproduce it bit-for-bit whatever the worker count.
//
// The sweep-defining flags are parsed by sweep/cli.hpp (shared with the
// coordinator, which drives this binary as its worker): every bad value
// — non-numeric text, out-of-range, overflow, a malformed I/N shard
// request — dies with a one-line "error: ..." naming the flag and the
// offending value, exit 2; an unknown flag dies the same way with
// "error: unknown flag '<flag>'".
//
// --stop-latency-us sweeps the cooperative stop-poll delay (§4.1); pair
// it with a stopping --policy (e.g. instant-stop) so detected faults
// actually request stops.
//
// --cores sweeps the partitioned-multiprocessor axis: for M > 1 each
// scenario is additionally placed onto an M-core fleet (first-fit and
// fault-aware partitioners, per --partitioner) and run through a
// mid-horizon core failure at --core-fault x horizon (0 disables the
// fault). --quantum-us sweeps the release-quantizer resolution; the
// default 1000 keeps the historical exact-threshold behavior, any other
// value arms nearest-rounding on the paper's jRate grid. Both axes
// fingerprint only when off their defaults, so historical pins hold.
//
// --shard I/N runs only shard I (0-based) of an N-way contiguous
// partition of the scenario index space and, with --emit-shard, writes
// the result as a versioned JSON shard file. --merge combines shard
// files — any order, any mix of per-shard worker counts — into the
// report the single-process run would have produced,
// with the identical fingerprint. The two-process pattern:
//
//   sweep_runner --shard 0/2 --emit-shard a.json &   # host A
//   sweep_runner --shard 1/2 --emit-shard b.json     # host B
//   sweep_runner --merge a.json b.json               # anywhere
//
// (sweep_coordinator automates exactly this, with crash re-issue.)
//
// --progress prints a stderr progress stream: a '\r'-in-place human
// line on a terminal, machine-parseable "progress D/T" lines on a pipe
// (what the coordinator reads). Purely observational; never moves the
// fingerprint.
//
// --csv exports one row per scenario verdict, --cells-csv one row per
// grid cell, --json the whole report; "-" writes to stdout.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sweep/cli.hpp"
#include "sweep/export.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace rtft;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scenarios N] [--workers W] [--seed S]\n"
      "          [--tasks n1,n2,...] [--util u1,u2,...]\n"
      "          [--detector-cost-us c1,c2,...]\n"
      "          [--stop-latency-us l1,l2,...]\n"
      "          [--cores m1,m2,...] [--quantum-us q1,q2,...]\n"
      "          [--partitioner both|first-fit|fault-aware]\n"
      "          [--core-fault F] [--policy NAME] [--horizon-periods K]\n"
      "          [--verdicts] [--full-traces] [--progress]\n"
      "          [--csv FILE] [--cells-csv FILE] [--json FILE]\n"
      "          [--shard I/N [--emit-shard FILE]]\n"
      "       %s --merge FILE...\n",
      argv0, argv0);
  std::exit(2);
}

/// Reads a whole file ("-" = stdin); exits 2 on I/O failure.
std::string read_file(const std::string& path) {
  std::FILE* f = path == "-" ? stdin : std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open '%s' for reading\n",
                 path.c_str());
    std::exit(2);
  }
  std::string content;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  const bool failed = std::ferror(f) != 0;
  if (f != stdin) std::fclose(f);
  if (failed) {
    std::fprintf(stderr, "error: failed reading '%s'\n", path.c_str());
    std::exit(2);
  }
  return content;
}

/// Writes `content` to `path` ("-" = stdout); exits 2 on I/O failure.
void write_file(const std::string& path, const std::string& content) {
  if (path == "-") {
    if (std::fwrite(content.data(), 1, content.size(), stdout) !=
        content.size()) {
      std::fprintf(stderr, "error: short write to stdout\n");
      std::exit(2);
    }
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                 path.c_str());
    std::exit(2);
  }
  const bool wrote_all =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;  // always close, even on failure
  if (!wrote_all || !closed) {
    std::fprintf(stderr, "error: short write to '%s'\n", path.c_str());
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  sweep::SweepOptions opts;
  bool print_verdicts = false;
  bool progress = false;
  bool sweep_flags = false;  ///< any flag that configures a run.
  bool have_shard = false;
  sweep::cli::ShardRequest shard_request;
  std::string emit_shard_path;
  std::vector<std::string> merge_paths;
  std::string csv_path;
  std::string cells_csv_path;
  std::string json_path;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (sweep::cli::apply_sweep_flag(arg, value, opts)) {
        sweep_flags = true;
      } else if (arg == "--shard") {
        shard_request = sweep::cli::parse_shard_request(value());
        have_shard = true;
        sweep_flags = true;
      } else if (arg == "--emit-shard") {
        emit_shard_path = value();
        sweep_flags = true;
      } else if (arg == "--merge") {
        // Consumes the following path arguments, stopping at the next
        // flag so --csv/--json/--verdicts can follow the file list
        // ("-" reads a shard from stdin and is not a flag).
        while (i + 1 < argc &&
               std::string_view(argv[i + 1]).substr(0, 2) != "--") {
          merge_paths.emplace_back(argv[++i]);
        }
        if (merge_paths.empty()) usage(argv[0]);
      } else if (arg == "--progress") {
        progress = true;
      } else if (arg == "--verdicts") {
        print_verdicts = true;
      } else if (arg == "--csv") {
        csv_path = value();
      } else if (arg == "--cells-csv") {
        cells_csv_path = value();
      } else if (arg == "--json") {
        json_path = value();
      } else {
        std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
        return 2;
      }
    }
  } catch (const sweep::cli::ArgError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  // The three modes are exclusive: a full sweep, one shard of a sweep,
  // or a merge of previously emitted shard files (which take every
  // sweep-defining option from the files themselves).
  if (!merge_paths.empty() && sweep_flags) usage(argv[0]);
  if (!emit_shard_path.empty() && !have_shard) usage(argv[0]);
  // Exports describe a full SweepReport; a shard run has only its slice.
  if (have_shard && (print_verdicts || !csv_path.empty() ||
                     !cells_csv_path.empty() || !json_path.empty())) {
    usage(argv[0]);
  }

  if (progress) {
    // Human '\r' line on a terminal, machine "progress D/T" lines on a
    // pipe; ~1% throttle. run_shard serializes invocations and delivers
    // a strictly increasing count, so the callback needs no lock.
    opts.on_progress = sweep::cli::stderr_progress_printer();
  }

  if (have_shard) {
    sweep::ShardResult shard;
    try {
      const sweep::SweepPlan plan(opts);
      shard = sweep::run_shard(
          plan.shard(shard_request.index, shard_request.count),
          plan.options());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    // With --emit-shard - the JSON document owns stdout; the summary
    // moves to stderr so the emitted stream stays loadable.
    std::FILE* const summary = emit_shard_path == "-" ? stderr : stdout;
    std::fprintf(summary,
                 "shard %llu/%llu: scenarios [%llu, %llu) of %llu, "
                 "seed %llu, %zu workers\n",
                 static_cast<unsigned long long>(shard.shard.index),
                 static_cast<unsigned long long>(shard.shard.shards),
                 static_cast<unsigned long long>(shard.shard.begin),
                 static_cast<unsigned long long>(shard.shard.end),
                 static_cast<unsigned long long>(
                     shard.options.scenario_count),
                 static_cast<unsigned long long>(shard.options.base_seed),
                 shard.options.workers);
    std::fprintf(summary,
                 "total %llu  schedulable %llu  engine-clean %llu  "
                 "agreement-violations %llu  allowance-honored %llu/%llu\n",
                 static_cast<unsigned long long>(shard.totals.total),
                 static_cast<unsigned long long>(shard.totals.rta_schedulable),
                 static_cast<unsigned long long>(shard.totals.engine_clean),
                 static_cast<unsigned long long>(
                     shard.totals.agreement_violations),
                 static_cast<unsigned long long>(
                     shard.totals.allowance_honored),
                 static_cast<unsigned long long>(
                     shard.totals.allowance_feasible));
    std::fprintf(summary, "elapsed %.3fs (%.0f scenarios/s)\n",
                 shard.elapsed_seconds,
                 static_cast<double>(shard.totals.total) /
                     (shard.elapsed_seconds > 0 ? shard.elapsed_seconds
                                                : 1.0));
    // Deliberately labeled "shard fingerprint": it is the standalone
    // FNV-1a fold over this range, not the sweep fingerprint CI pins —
    // only the merge reproduces that.
    std::fprintf(summary, "shard fingerprint %016llx\n",
                 static_cast<unsigned long long>(shard.fingerprint));
    if (!emit_shard_path.empty()) {
      write_file(emit_shard_path, sweep::shard_json(shard));
    }
    const bool sound =
        shard.totals.agreement_violations == 0 &&
        shard.totals.allowance_honored == shard.totals.allowance_feasible;
    return sound ? 0 : 1;
  }

  sweep::SweepReport report;
  if (!merge_paths.empty()) {
    // Incremental merge: each file folds into the merger as it loads,
    // so peak memory is one in-flight ShardResult (plus any shards
    // buffered while waiting for a predecessor range), not the whole
    // shard list. Load each file under its own handler: a defect
    // report that does not say *which* of a dozen files is truncated
    // or stale is useless to whoever has to clean the output
    // directory up.
    sweep::ShardMerger merger;
    std::vector<std::pair<std::string, sweep::ShardSpec>> origins;
    origins.reserve(merge_paths.size());
    for (const std::string& path : merge_paths) {
      try {
        sweep::ShardResult shard = sweep::load_shard_json(read_file(path));
        origins.emplace_back(path, shard.shard);
        merger.add(std::move(shard));
      } catch (const sweep::ShardError& e) {
        std::fprintf(stderr, "error: shard file '%s': %s\n", path.c_str(),
                     e.what());
        return 2;
      }
    }
    // Cross-file defects (gaps, short coverage) surface at finish(); the
    // messages speak in index ranges, so append the file -> range map to
    // keep them pointing at files.
    try {
      report = merger.finish();
    } catch (const sweep::ShardError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      for (const auto& [path, spec] : origins) {
        std::fprintf(stderr, "  '%s' covers [%llu, %llu)\n", path.c_str(),
                     static_cast<unsigned long long>(spec.begin),
                     static_cast<unsigned long long>(spec.end));
      }
      return 2;
    }
    std::printf("merged %zu shard file(s)\n", origins.size());
  } else {
    if (opts.grid.task_counts.empty() || opts.grid.utilizations.empty() ||
        opts.grid.detector_costs.empty() ||
        opts.grid.stop_poll_latencies.empty()) {
      usage(argv[0]);
    }
    try {
      report = sweep::run_sweep(opts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  std::printf("sweep: %llu scenarios, %zu workers, seed %llu\n\n",
              static_cast<unsigned long long>(report.options.scenario_count),
              report.options.workers,
              static_cast<unsigned long long>(report.options.base_seed));
  std::fputs(report.table().c_str(), stdout);
  std::printf("\nelapsed %.3fs (%.0f scenarios/s)\n", report.elapsed_seconds,
              static_cast<double>(report.totals.total) /
                  (report.elapsed_seconds > 0 ? report.elapsed_seconds : 1.0));
  std::printf("fingerprint %016llx\n",
              static_cast<unsigned long long>(report.fingerprint));

  if (!csv_path.empty()) write_file(csv_path, sweep::verdicts_csv(report));
  if (!cells_csv_path.empty()) {
    write_file(cells_csv_path, sweep::cells_csv(report));
  }
  if (!json_path.empty()) write_file(json_path, sweep::report_json(report));

  if (print_verdicts) {
    std::puts("\nindex seed             tasks U     sched clean agree A(ms)");
    for (const sweep::ScenarioVerdict& v : report.verdicts) {
      std::printf("%5llu %016llx %5zu %.3f %5s %5s %5s %.3f\n",
                  static_cast<unsigned long long>(v.index),
                  static_cast<unsigned long long>(v.seed), v.task_count,
                  v.actual_utilization, v.rta_schedulable ? "yes" : "no",
                  v.engine_clean ? "yes" : "no", v.agreement ? "yes" : "NO",
                  v.allowance.to_ms());
    }
  }

  // Exit nonzero when the engine contradicted an analysis anywhere — a
  // schedulable-by-RTA set missing a deadline, or an overrun of the
  // equitable allowance not being absorbed. The sweep doubles as a
  // soundness check (CI relies on this exit code).
  const bool sound =
      report.totals.agreement_violations == 0 &&
      report.totals.allowance_honored == report.totals.allowance_feasible;
  return sound ? 0 : 1;
}
