// Runs the same task system on both execution substrates — the exact
// virtual-time engine and the approximate wall-clock executor — and puts
// their response-time statistics side by side. The virtual engine stands
// in for the paper's jRate/TimeSys testbed measurements; the wall-clock
// run shows what the same workload does on a stock (non-RT) kernel,
// where preemption latency is one cooperative slice.
#include <cstdio>

#include "posix/wallclock_executor.hpp"
#include "runtime/engine.hpp"
#include "sched/response_time.hpp"

int main() {
  using namespace rtft;
  using namespace rtft::literals;

  // A small 3-task system (periods scaled down so the wall-clock run
  // finishes in ~0.6 s of real time).
  sched::TaskSet tasks;
  tasks.add({"hi", 30, 5_ms, 40_ms, 40_ms, 0_ms});
  tasks.add({"mid", 20, 10_ms, 80_ms, 80_ms, 0_ms});
  tasks.add({"lo", 10, 15_ms, 120_ms, 120_ms, 0_ms});
  const Duration horizon = 600_ms;

  // Virtual-time run (exact).
  rt::EngineOptions vopts;
  vopts.horizon = Instant::epoch() + horizon;
  rt::Engine engine(vopts);
  std::vector<rt::TaskHandle> vh;
  for (const auto& t : tasks) vh.push_back(engine.add_task(t));
  engine.run();

  // Wall-clock run (approximate, 1 ms preemption slice).
  posix::WallclockOptions wopts;
  wopts.horizon = horizon;
  posix::WallclockExecutor exec(wopts);
  std::vector<rt::TaskHandle> wh;
  for (const auto& t : tasks) wh.push_back(exec.add_task(t));
  exec.run();

  std::puts("task  analytic-WCRT  virtual max-resp  wallclock max-resp  "
            "(virtual released / wallclock released)");
  for (sched::TaskId i = 0; i < tasks.size(); ++i) {
    const auto rta = sched::response_time(tasks, i);
    const auto& vs = engine.stats(vh[i]);
    const auto& ws = exec.stats(wh[i]);
    std::printf("%-4s  %-13s  %-16s  %-18s  (%lld / %lld)\n",
                tasks[i].name.c_str(), to_string(rta.wcrt).c_str(),
                to_string(vs.max_response).c_str(),
                to_string(ws.max_response).c_str(),
                static_cast<long long>(vs.released),
                static_cast<long long>(ws.released));
  }
  std::puts("\nreading: the virtual engine matches the analysis exactly;"
            "\nthe wall-clock run tracks it within scheduling noise and"
            "\nthe cooperative slice — on the paper's RT kernel the gap"
            "\nwould shrink to the kernel's preemption latency.");
  return 0;
}
