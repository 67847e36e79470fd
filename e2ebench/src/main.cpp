// rtft end-to-end benchmark.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]
//   e2ebench --selfcheck
//
// Runs one workload for S seconds on inputs generated from the seed,
// checks every output against its oracle, writes the full result
// document (provenance, gates, metrics) and, for a traced run, the span
// log under DIR, and prints the one-line result last on stdout. Exit 0
// only when every correctness gate held.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <sys/stat.h>
#include <thread>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using e2e::MetricDecl;
using e2e::Result;
using e2e::RunConfig;

/// Reported by every untraced run.
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput.w1", "1/s"},
    {"throughput.w2", "1/s"},
};

/// Reported by every traced run. A workload that does not exercise a
/// layer reports 0 for it (README: "Per-layer metrics").
constexpr MetricDecl kPerLayer[] = {
    {"runtime.engine.ns_per_event", "ns"},
    {"runtime.engine.events_per_scenario", "count"},
    {"runtime.engine.us_per_scenario", "us"},
    {"core.detector.fires_per_scenario", "count"},
    {"core.detector.faults_per_scenario", "count"},
    {"core.treatment.plan_us", "us"},
    {"sched.rta.us_per_call", "us"},
    {"sched.allowance.us_per_call", "us"},
    {"sched.canonical.us_per_call", "us"},
    {"sweep.generate.us_per_call", "us"},
    {"sweep.scenario.us", "us"},
    {"sweep.shard_json.ms", "ms"},
    {"sweep.load_shard.ms", "ms"},
    {"sweep.merge.ms", "ms"},
    {"sweep.scaling_eff.w2", "ratio"},
    {"sweep.share.engine", "ratio"},
    {"sweep.share.analysis", "ratio"},
    {"multicore.place_ff.us", "us"},
    {"multicore.place_fa.us", "us"},
    {"multicore.fa_placed_frac", "ratio"},
    {"multicore.fleet.ns_per_job", "ns"},
    {"multicore.lost_jobs_per_run", "count"},
    {"serve.cache.hit_frac", "ratio"},
    {"serve.cache.evictions", "count"},
    {"serve.exact_miss.us", "us"},
    {"serve.submit.us", "us"},
    {"serve.queue.max_depth", "count"},
    {"serve.rejected_full", "count"},
    {"serve.shed_deadline", "count"},
    {"serve.degrade_steps", "count"},
    {"serve.tier.exact", "count"},
    {"serve.tier.rta", "count"},
    {"serve.tier.bound", "count"},
    {"serve.generator_lag_ms", "ms"},
    {"serve.warmup_s", "s"},
    {"latency_p50_ms.light", "ms"},
    {"latency_p99_ms.light", "ms"},
    {"latency_p50_ms.heavy", "ms"},
    {"latency_p99_ms.heavy", "ms"},
    {"exact_frac.heavy", "ratio"},
    {"failed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA] "
               "[--source-digest HEX]\n       e2ebench --selfcheck\n",
               why);
  std::exit(2);
}

bool is_release_build() {
#ifdef NDEBUG
  return std::strcmp(E2E_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool selfcheck = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selfcheck") {
      selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0.0)) {
        usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      cfg.trace = value == "1";
    } else if (arg == "--out-dir") {
      cfg.out_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }

  if (!is_release_build()) {
    std::fprintf(stderr,
                 "error: refusing to time a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 E2E_BUILD_TYPE);
    return 2;
  }
  if (selfcheck) return e2e::run_selfchecks();
  if (!have_workload) usage("--workload is required");
  if (!e2e::is_sweep_workload(cfg.workload) &&
      cfg.workload != "admission-mixed") {
    usage(("unknown workload " + cfg.workload).c_str());
  }
  ::mkdir(cfg.out_dir.c_str(), 0755);

  Result result;
  result.info("git_sha", git_sha);
  result.info("source_digest", source_digest);
  result.info("compiler", E2E_COMPILER);
  result.info("build_type", E2E_BUILD_TYPE);
  result.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  result.info("seed", std::to_string(cfg.seed));
  result.info("seconds", std::to_string(cfg.seconds));

  try {
    if (e2e::is_sweep_workload(cfg.workload)) {
      e2e::run_sweep_workload(cfg, result);
    } else {
      e2e::run_admission_workload(cfg, result);
    }
  } catch (const std::exception& e) {
    result.gate(false, std::string("workload threw: ") + e.what());
  }

  // Hold every run to the declared metric list, in declared order.
  if (cfg.trace) {
    result.metric("failed_frac",
               result.attempted == 0
                   ? 0.0
                   : static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted),
               "ratio");
  }
  const bool ok = cfg.trace ? result.order_metrics(kPerLayer, true)
                            : result.order_metrics(kEndToEnd, false);
  result.gate(ok, "the run reports exactly the declared metrics");

  const std::string doc_path = cfg.out_dir + "/result-" + cfg.workload +
                               "-seed" + std::to_string(cfg.seed) +
                               (cfg.trace ? "-trace" : "") + ".json";
  if (std::FILE* f = std::fopen(doc_path.c_str(), "w")) {
    const std::string doc = result.document_json(cfg);
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
  }
  std::printf("document %s\n%s\n", doc_path.c_str(),
              result.summary_json().c_str());
  return result.correct() ? 0 : 1;
}
