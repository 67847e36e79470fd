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
//     `slice`, so preemption latency is one slice (this is precisely the
//     cooperative polling the paper describes for stopping threads,
//     §4.1, applied to scheduling);
//   * "work" is either a busy spin (consumes real CPU, needs an idle
//     core) or a timed sleep (default; robust on loaded CI machines).
//
// Use the virtual-time engine for exact figures; use this to demonstrate
// the API against a real clock and to sanity-check orderings. Timestamps
// come from the TscClock (the paper's RDTSC path).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "runtime/engine.hpp"  // CostModel, TaskStats
#include "sched/task.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"

namespace rtft::posix {

struct WallclockOptions {
  /// Real-time length of the run.
  Duration horizon = Duration::ms(500);
  /// Cooperative preemption granularity (and stop-poll latency).
  Duration slice = Duration::ms(1);
  /// Burn CPU for "execution" instead of sleeping through it.
  bool busy_spin = false;
  /// Where trace events go (borrowed; must outlive the executor) — the
  /// engine's Sink seam applied to the wall-clock substrate, so a caller
  /// can observe wall-clock runs through the same sink (e.g. a
  /// CountingSink) it uses for virtual-time runs. Null (the default)
  /// keeps the historical behavior: the executor owns a full-fidelity
  /// Recorder, exposed through recorder().
  trace::Sink* sink = nullptr;
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
  /// Post-run trace with TSC timestamps (release/start/end/miss events).
  /// Only meaningful when no external sink was configured — events then
  /// went to WallclockOptions::sink, and this throws ContractViolation
  /// (mirroring FaultTolerantSystem::recorder()).
  [[nodiscard]] const trace::Recorder& recorder() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rtft::posix
