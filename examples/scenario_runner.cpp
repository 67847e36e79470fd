// Scenario runner — the paper's §5 measurement tool: parses a scenario
// file describing the tasks, builds and runs them, and writes the
// collected measurements (text log, CSV, SVG chart) next to the input.
//
//   scenario_runner my_experiment.rtft
//
// With no argument it demonstrates itself on the paper's Figure 6
// scenario, written to a temporary file first so the full parse → run →
// log pipeline is exercised.
#include <cstdio>
#include <string>

#include "common/file.hpp"
#include "config/scenario.hpp"
#include "core/paper.hpp"
#include "trace/log_writer.hpp"
#include "trace/stats.hpp"
#include "trace/svg_chart.hpp"
#include "trace/timeline.hpp"

namespace {

using namespace rtft;

std::string demo_scenario_path() {
  // Serialize the canonical Figure 6 scenario and write it out.
  core::paper::Scenario s = core::paper::figures_scenario(
      core::TreatmentPolicy::kEquitableAllowance);
  cfg::Scenario file;
  file.config = std::move(s.config);
  file.faults = std::move(s.faults);
  const std::string path = "/tmp/rtft_figure6_demo.rtft";
  write_file(path, cfg::write_scenario(file));
  std::printf("no input given; wrote demo scenario to %s\n", path.c_str());
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : demo_scenario_path();
  // Everything past the path comes from the file: the parser refuses a
  // value the system cannot run (a zero horizon, a negative latency)
  // with its key and line, and any later error still ends in one line.
  try {
    cfg::Scenario scenario = cfg::load_scenario(path);
    const sched::TaskSet tasks = scenario.config.tasks;
    const Duration horizon = scenario.config.horizon;
    core::FaultTolerantSystem system(std::move(scenario.config),
                                     std::move(scenario.faults));
    const core::RunReport report = system.run();
    std::fputs(report.summary().c_str(), stdout);
    if (!report.executed) {
      std::puts("system refused by admission control; nothing executed");
      return 2;
    }

    const trace::SystemTimeline timeline = trace::build_timeline(
        tasks, system.recorder(), Instant::epoch() + horizon);
    std::fputs(trace::compute_stats(timeline).table().c_str(), stdout);

    const std::string base = path + ".out";
    write_file(base + ".log",
               trace::text_log_string(system.recorder(), tasks));
    write_file(base + ".csv", trace::csv_string(system.recorder(), tasks));
    write_file(base + ".svg", trace::render_svg_chart(timeline));
    std::printf("wrote %s.{log,csv,svg}\n", base.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
