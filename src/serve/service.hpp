// The always-on admission service — the paper's one-shot admission test
// productionized into a long-lived server that survives overload.
//
// Request lifecycle:
//
//   submit() ──► bounded queue ──► worker pool ──► response future
//      │ full?                       │
//      └─► kRejectedFull +           ├─ expired? ─► kShedDeadline
//          retry_after               ├─ poisoned? ─► kInvalidRequest
//          (backpressure,            ├─ cache hit? ─► kAnswered (cached
//           never unbounded           │               tier tag)
//           growth)                   └─ analyze at the ladder tier:
//                                        kExact ─► kRtaOnly ─► kBound
//
// Robustness by construction, in the REL tradition of making the
// fault-tolerance provisions an explicit, testable structure rather than
// scattered ad hoc:
//
//   * Backpressure, not buffering: the queue is bounded; a full queue
//     refuses with a retry_after hint. Accepted requests are always
//     answered — including during shutdown.
//   * Shed before work: a request whose deadline passed while queued is
//     answered kShedDeadline without spending analysis on it.
//   * The degradation ladder: under queue-depth pressure workers step
//     down from exact RTA + engine cross-check (queue half full) to RTA
//     only, then (four fifths full) to constant-time utilization
//     bounds, every response tagged with the tier that produced it, and
//     step back up (with hysteresis, at half those fills) when pressure
//     clears. Degraded answers are weaker but bounded — kInconclusive
//     at worst — never wrong.
//   * The exact cross-check: both analysis tiers take their verdict
//     from one loop of the deadline-capped kernel, and kExact replays
//     the set from its synchronous release (the critical instant) only
//     up to a date that loop computed: the end of the busy period for a
//     feasible set, the deadline of the first certain miss otherwise.
//     Over that interval the engine must reproduce the kernel exactly,
//     task by task (see AdmissionService::compute). A set the kernel
//     gives no date is answered at kRtaOnly, not cross-checked.
//   * Pooled engines: each worker reuses one rt::Engine through the
//     reset() path, so steady-state serving allocates nothing per
//     request on the engine side.
//   * Memoization: verdicts are cached by canonical task-set identity
//     (bounded LRU, checksum-validated), so repeated queries never
//     recompute.
//   * Faults are injectable (ServiceFaultPlan): worker exceptions,
//     clock skips and cache corruption can be injected deterministically
//     so the soak test *proves* the service degrades and recovers
//     instead of assuming it.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/engine.hpp"
#include "sched/response_time.hpp"
#include "serve/admission.hpp"
#include "serve/bounded_queue.hpp"
#include "serve/verdict_cache.hpp"

namespace rtft::serve {

struct ServiceOptions {
  std::size_t workers = 2;
  std::size_t queue_capacity = 64;
  std::size_t cache_capacity = 1024;
  /// The replay window of e2ebench's traced admission replica, as a
  /// multiple of the set's largest period. The service itself replays
  /// only to a date the kernel gives and reads it nowhere; it goes when
  /// the replica does.
  static constexpr std::int64_t horizon_periods = 8;
  ServiceFaultPlan faults;
  /// Start the worker pool in the constructor. Tests pass false, preload
  /// the queue, then call start() — making queue-depth-driven ladder
  /// behaviour exactly reproducible.
  bool autostart = true;
};

class AdmissionService {
 public:
  explicit AdmissionService(ServiceOptions options);
  ~AdmissionService();  ///< stop()s.
  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  /// Launches the worker pool. No-op when already started.
  void start();

  /// Refuses new submissions, lets the workers drain and answer every
  /// already-accepted request, then joins the pool. Idempotent.
  void stop();

  /// Never blocks. The future always resolves: immediately for
  /// kRejectedFull / kShutdown, after a worker handles the request
  /// otherwise (also guaranteed during stop()).
  [[nodiscard]] std::future<AdmissionResponse> submit(AdmissionRequest request);

  /// Blocking convenience: submit + wait.
  [[nodiscard]] AdmissionResponse admit(AdmissionRequest request);

  [[nodiscard]] ServiceMetrics metrics() const;
  [[nodiscard]] AnalysisTier current_tier() const;

 private:
  struct Pending {
    AdmissionRequest request;
    std::promise<AdmissionResponse> promise;
    std::int64_t deadline_ns = 0;  ///< service-clock date; 0 = none.
  };

  /// Per-worker pooled execution context (the reset() path): one
  /// sink-free engine and one priority view reused across every request
  /// the worker serves, and the kernel's result at each view position;
  /// the cross-check compares the engine's TaskStats with those results.
  struct WorkerContext {
    WorkerContext();
    rt::Engine engine;
    std::vector<sched::TaskId> ids;
    sched::PriorityView view;
    std::vector<sched::RtaResult> rta;  ///< by view position.
  };

  /// Service clock: steady_clock nanoseconds plus the injected skew.
  [[nodiscard]] std::int64_t now_ns() const;
  void worker_loop();
  /// Answers one popped request (everything except promise delivery).
  [[nodiscard]] AdmissionResponse process(WorkerContext& ctx, Pending& item,
                                          AnalysisTier tier);
  /// Runs the tier's analysis on a validated set.
  [[nodiscard]] CachedVerdict compute(WorkerContext& ctx,
                                      const sched::TaskSet& ts,
                                      AnalysisTier tier, bool& cross_checked);
  /// Re-evaluates the ladder from the queue fill seen at pop `pop_seq`;
  /// a reading older than one already applied only reads the tier.
  [[nodiscard]] AnalysisTier update_tier(std::size_t depth_at_pop,
                                         std::uint64_t pop_seq);
  void note_latency(Duration elapsed);
  [[nodiscard]] Duration estimate_retry_after() const;

  ServiceOptions opts_;
  BoundedQueue<Pending> queue_;
  VerdictCache cache_;
  std::vector<std::thread> pool_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::mutex lifecycle_mu_;  ///< serializes start()/stop().

  std::atomic<std::int64_t> clock_skew_ns_{0};
  std::atomic<std::uint64_t> processed_{0};  ///< fault-plan ordinal.

  /// Ladder state + the latency EMA behind retry_after, under one small
  /// lock (touched once per request, never inside analysis).
  mutable std::mutex ctrl_mu_;
  bool rta_degraded_ = false;
  bool bound_degraded_ = false;
  AnalysisTier tier_ = AnalysisTier::kExact;
  std::uint64_t last_pop_seq_ = 0;  ///< the newest reading applied.
  double ema_latency_ns_ = 0.0;

  // Monotonic counters (ServiceMetrics snapshot sources).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> shed_deadline_{0};
  std::atomic<std::uint64_t> invalid_{0};
  std::atomic<std::uint64_t> worker_errors_{0};
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<std::uint64_t> answered_by_tier_[3] = {{0}, {0}, {0}};
  std::atomic<std::uint64_t> degrade_steps_{0};
  std::atomic<std::uint64_t> recover_steps_{0};
  std::atomic<std::uint64_t> clock_skips_{0};
  std::atomic<std::uint64_t> faults_injected_{0};
  std::atomic<std::uint64_t> cross_check_disagreements_{0};
  std::atomic<std::uint64_t> cross_check_skips_{0};
};

}  // namespace rtft::serve
