// Wall-clock executor: the same task model as rt::Engine, run against
// real time on std::thread.
//
// This is the documented approximation of the paper's execution substrate
// (jRate on a TimeSys real-time kernel). A stock kernel in a container
// gives no fixed-priority preemption guarantee, so the executor emulates
// one in user space:
//
//   * every task is a thread; a shared priority gate admits only the
//     highest-priority released job to "execute";
//   * execution is sliced — the running job re-checks the gate every
//     1 ms slice, so preemption latency is one slice (this is precisely
//     the cooperative polling the paper describes for stopping threads,
//     §4.1, applied to scheduling);
//   * "work" is a timed sleep, robust on loaded CI machines (a busy
//     spin would need an idle core per task).
//
// Use the virtual-time engine for exact figures; use this to demonstrate
// the API against a real clock and to sanity-check orderings. One clock,
// std::chrono::steady_clock read from run() on, schedules releases,
// measures responses, ends the run and stamps the trace. (The paper read
// RDTSC through JNI because Java then had no nanosecond clock; C++ has
// one.)
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "runtime/engine.hpp"  // CostModel, TaskStats
#include "sched/task.hpp"
#include "trace/recorder.hpp"

namespace rtft::posix {

struct WallclockOptions {
  /// Real-time length of the run.
  Duration horizon = Duration::ms(500);
};

/// Runs periodic tasks against the wall clock. Threads are created by
/// run() and joined before it returns; the object is single-use.
class WallclockExecutor {
 public:
  explicit WallclockExecutor(WallclockOptions options);
  ~WallclockExecutor();
  WallclockExecutor(const WallclockExecutor&) = delete;
  WallclockExecutor& operator=(const WallclockExecutor&) = delete;

  /// Registers a task before run(). Offsets are relative to run() start.
  rt::TaskHandle add_task(const sched::TaskParams& params,
                          rt::CostModel cost = {});

  /// Executes all tasks until the horizon elapses (blocking).
  void run();

  /// Post-run statistics (same shape as the virtual engine's).
  [[nodiscard]] const rt::TaskStats& stats(rt::TaskHandle task) const;
  /// Post-run trace (release/start/end/miss events), dated in steady-clock
  /// time since run() started.
  [[nodiscard]] const trace::Recorder& recorder() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rtft::posix
