// Request/response vocabulary of the admission service.
//
// The paper's artifact is one question — "can this task set, under this
// fault model, be admitted?" — asked once. A service answering it for
// millions of clients needs the answer wrapped in serving metadata: what
// happened to the request (answered, refused at the door, shed past its
// deadline, invalid, failed), which *tier* of analysis produced the
// verdict while the service was shedding load, and whether a cached
// verdict was reused. Every response carries all three, so a degraded
// answer is visibly degraded instead of silently weaker.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "sched/task.hpp"

namespace rtft::serve {

/// The degradation ladder, ordered strongest first. Under pressure the
/// service steps *down* the ladder (larger enum value = cheaper, weaker
/// analysis) and climbs back up when the queue clears.
enum class AnalysisTier : std::uint8_t {
  /// Exact response-time analysis plus a virtual-time engine run
  /// cross-checking the verdict — the full one-shot answer.
  kExact = 0,
  /// Exact response-time analysis only; the engine cross-check is shed.
  kRtaOnly = 1,
  /// Utilization bounds only (exact load test, then hyperbolic /
  /// Liu-Layland): constant-time, sufficient-only — may answer
  /// kInconclusive where the exact tiers would decide.
  kBound = 2,
};

[[nodiscard]] const char* to_cstring(AnalysisTier tier);

/// What happened to a request, independent of the admission verdict.
enum class ResponseStatus : std::uint8_t {
  kAnswered,       ///< analysis ran (or was cached); see verdict + tier.
  kRejectedFull,   ///< refused at the door: queue full. See retry_after.
  kShedDeadline,   ///< popped after its deadline; shed before any work.
  kInvalidRequest, ///< malformed task parameters; see detail.
  kWorkerError,    ///< analysis failed (worker exception); see detail.
  kShutdown,       ///< submitted after stop(); never enqueued.
};

[[nodiscard]] const char* to_cstring(ResponseStatus status);

/// The admission answer itself.
enum class AdmissionVerdict : std::uint8_t {
  kAdmit,         ///< provably feasible at the producing tier.
  kReject,        ///< provably infeasible at the producing tier.
  kInconclusive,  ///< the bound tier could not decide (U <= 1 but no
                  ///< sufficient bound passed). Exact tiers never
                  ///< return this.
};

[[nodiscard]] const char* to_cstring(AdmissionVerdict verdict);

/// One admission query. Task parameters travel raw (not as a validated
/// TaskSet): validation happens on a worker, where a poisoned request
/// becomes a kInvalidRequest response instead of a caller-side throw.
struct AdmissionRequest {
  /// Client correlation id, echoed in the response.
  std::uint64_t id = 0;
  std::vector<sched::TaskParams> tasks;
  /// Relative answer deadline, measured from submit(). A request still
  /// queued past it is shed without analysis. Zero = no deadline.
  Duration time_budget = Duration::zero();
};

struct AdmissionResponse {
  std::uint64_t id = 0;
  ResponseStatus status = ResponseStatus::kAnswered;
  AdmissionVerdict verdict = AdmissionVerdict::kInconclusive;
  /// The tier that produced the verdict (for a cache hit: the tier the
  /// cached entry was computed at, which is at least as strong as the
  /// tier active when it was served). Meaningful only when kAnswered.
  AnalysisTier tier = AnalysisTier::kExact;
  bool cache_hit = false;
  /// kExact only: the engine run agreed with the analysis (a sound RTA
  /// makes disagreement a library bug; the service counts it instead of
  /// asserting, and the soak test pins the count to zero).
  bool cross_checked = false;
  double utilization = 0.0;
  /// kRejectedFull only: a backpressure hint — roughly how long the
  /// current backlog needs to drain. Clients that retry sooner meet the
  /// same full queue.
  Duration retry_after = Duration::zero();
  /// kInvalidRequest / kWorkerError: one-line reason.
  std::string detail;
};

/// Deterministic fault-injection seam. Counters are keyed on the global
/// processed-request ordinal n (1-based): a fault with period k fires on
/// every request with n % k == 0. All zero (the default) injects
/// nothing; production builds pay only an integer compare per request.
struct ServiceFaultPlan {
  /// Worker throws std::runtime_error mid-analysis every k-th request.
  /// The worker must survive, answer kWorkerError, and keep serving.
  std::uint64_t worker_throw_every = 0;
  /// The service clock jumps forward by `clock_skip` every k-th request
  /// (models NTP steps / suspend-resume): queued deadlines expire en
  /// masse and must be shed, not answered late.
  std::uint64_t clock_skip_every = 0;
  Duration clock_skip = Duration::zero();
  /// The cache entry a lookup is about to return is bit-flipped every
  /// k-th request: the checksum must catch it, drop the entry, and
  /// recompute — never serve the corrupted verdict.
  std::uint64_t corrupt_cache_every = 0;
};

/// Monotonic service counters; snapshot via AdmissionService::metrics().
struct ServiceMetrics {
  std::uint64_t submitted = 0;       ///< submit() calls.
  std::uint64_t accepted = 0;        ///< enqueued (passed backpressure).
  std::uint64_t rejected_full = 0;   ///< refused: queue full.
  std::uint64_t rejected_shutdown = 0;  ///< refused: after stop().
  std::uint64_t shed_deadline = 0;   ///< expired in queue, shed unworked.
  std::uint64_t invalid = 0;         ///< poisoned requests caught.
  std::uint64_t worker_errors = 0;   ///< exceptions answered kWorkerError.
  std::uint64_t answered = 0;        ///< kAnswered responses.
  std::uint64_t answered_by_tier[3] = {0, 0, 0};  ///< index = AnalysisTier.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_corruption_detected = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t degrade_steps = 0;   ///< ladder steps down.
  std::uint64_t recover_steps = 0;   ///< ladder steps back up.
  std::uint64_t clock_skips = 0;     ///< injected clock jumps applied.
  std::uint64_t faults_injected = 0; ///< all ServiceFaultPlan firings.
  /// kExact runs where the engine disagreed with the analysis. RTA is a
  /// sound worst case, so anything nonzero is a library bug surfaced by
  /// serving traffic.
  std::uint64_t cross_check_disagreements = 0;
  /// kExact requests answered at kRtaOnly, not cross-checked: the
  /// kernel dated nothing to replay to (a level load above 1 or a guard
  /// rail), or the replay would release more than the 200,000-job cap
  /// (a 1 ns period next to a 1000 s one must not starve every other
  /// client) or reach dates past int64 nanoseconds.
  std::uint64_t cross_check_skips = 0;
  std::size_t max_queue_depth = 0;   ///< high-water mark (<= capacity).
  AnalysisTier current_tier = AnalysisTier::kExact;

  /// Multi-line human-readable dump (the CLI driver's report).
  [[nodiscard]] std::string summary() const;
};

}  // namespace rtft::serve
