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
//   * The degradation ladder: under queue-depth (or observed-latency)
//     pressure workers step down from exact RTA + engine cross-check to
//     RTA only to constant-time utilization bounds, every response
//     tagged with the tier that produced it, and step back up (with
//     hysteresis) when pressure clears. Degraded answers are weaker but
//     bounded — kInconclusive at worst — never wrong.
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
#include "serve/admission.hpp"
#include "serve/bounded_queue.hpp"
#include "serve/verdict_cache.hpp"

namespace rtft::serve {

/// When the ladder steps. Thresholds are queue-fill fractions in (0, 1];
/// a tier degrades when fill reaches its threshold and recovers when
/// fill drops to threshold * recover_factor (hysteresis, so a fill
/// hovering at a threshold cannot make the tier flap every request).
struct DegradationPolicy {
  double degrade_rta_at = 0.50;    ///< fill >= this: shed the cross-check.
  double degrade_bound_at = 0.80;  ///< fill >= this: bounds only.
  double recover_factor = 0.5;     ///< recover below threshold * this.
  /// Secondary signal: EMA of per-request service time. Above this the
  /// service holds at least kRtaOnly even with a shallow queue (a few
  /// slow requests can starve the queue without ever filling it).
  /// Zero disables.
  Duration latency_degrade_at = Duration::zero();
};

struct ServiceOptions {
  std::size_t workers = 2;
  std::size_t queue_capacity = 64;
  std::size_t cache_capacity = 1024;
  /// Engine cross-check window, as a multiple of the set's largest
  /// period (same meaning as SweepOptions::horizon_periods).
  std::int64_t horizon_periods = 8;
  /// Refuse the engine cross-check (answer at kRtaOnly) when the window
  /// would release more jobs than this — one pathological request must
  /// not monopolize a worker.
  std::int64_t max_cross_check_jobs = 200'000;
  DegradationPolicy degradation;
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
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }

 private:
  struct Pending {
    AdmissionRequest request;
    std::promise<AdmissionResponse> promise;
    std::int64_t deadline_ns = 0;  ///< service-clock date; 0 = none.
  };

  /// Per-worker pooled execution context (the reset() path): one
  /// sink-free engine reused across every request the worker serves;
  /// the cross-check reads misses from its TaskStats.
  struct WorkerContext {
    WorkerContext();
    rt::Engine engine;
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
  /// Re-evaluates the ladder from the queue fill seen at pop time.
  [[nodiscard]] AnalysisTier update_tier(std::size_t depth_at_pop);
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

  /// Ladder state + latency EMA, under one small lock (touched once per
  /// request, never inside analysis).
  mutable std::mutex ctrl_mu_;
  bool rta_degraded_ = false;
  bool bound_degraded_ = false;
  bool latency_degraded_ = false;
  AnalysisTier tier_ = AnalysisTier::kExact;
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
  std::atomic<std::uint64_t> oversize_cross_check_skips_{0};
};

}  // namespace rtft::serve
