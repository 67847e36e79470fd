#include "serve/service.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "common/assert.hpp"
#include "sched/canonical.hpp"
#include "sched/feasibility.hpp"
#include "sched/utilization.hpp"

namespace rtft::serve {

namespace {

rt::EngineOptions placeholder_engine_options() {
  rt::EngineOptions eopts;
  eopts.horizon = Instant::from_ns(1);  // re-armed before every cross-check.
  return eopts;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The hyperbolic / Liu-Layland bounds are sufficient only for
/// rate-monotonic priorities with deadlines no tighter than periods;
/// applying them outside that shape would turn "degraded" into "wrong".
bool bounds_applicable(const sched::TaskSet& ts) {
  const auto& tasks = ts.tasks();
  for (const sched::TaskParams& t : tasks) {
    if (t.deadline < t.period) return false;
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      // Strictly RM-consistent: a strictly shorter period must have a
      // strictly higher priority. Equal priorities across different
      // periods fail too — the model (TaskSet::HP) makes equal-priority
      // tasks mutually interfering, so the short-period task suffers
      // interference RM never allows and the bounds stop being
      // sufficient.
      if (tasks[i].period < tasks[j].period &&
          tasks[i].priority <= tasks[j].priority) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------------

AdmissionService::WorkerContext::WorkerContext()
    : engine(placeholder_engine_options()) {
  engine.reserve(32, 4 * 32 + 16);
}

AdmissionService::AdmissionService(ServiceOptions options)
    : opts_(options),
      queue_(options.queue_capacity),
      cache_(options.cache_capacity) {
  RTFT_EXPECTS(opts_.workers > 0, "admission service needs >= 1 worker");
  RTFT_EXPECTS(opts_.horizon_periods > 0,
               "cross-check horizon must cover >= 1 period");
  RTFT_EXPECTS(opts_.degradation.degrade_rta_at > 0.0 &&
                   opts_.degradation.degrade_bound_at >=
                       opts_.degradation.degrade_rta_at,
               "degradation thresholds must be ordered and positive");
  if (opts_.autostart) start();
}

AdmissionService::~AdmissionService() { stop(); }

void AdmissionService::start() {
  const std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_.load() || stopping_.load()) return;
  pool_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i) {
    pool_.emplace_back([this] { worker_loop(); });
  }
  started_.store(true);
}

void AdmissionService::stop() {
  const std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (stopping_.load()) return;
  stopping_.store(true);
  queue_.close();
  for (std::thread& t : pool_) t.join();
  pool_.clear();
  // Never-started services still owe answers on whatever was preloaded.
  while (auto popped = queue_.pop()) {
    AdmissionResponse resp;
    resp.id = popped->first.request.id;
    resp.status = ResponseStatus::kShutdown;
    resp.detail = "service stopped before a worker picked this up";
    rejected_shutdown_.fetch_add(1);
    popped->first.promise.set_value(std::move(resp));
  }
}

// ---------------------------------------------------------------------------
// Ingress.
// ---------------------------------------------------------------------------

std::int64_t AdmissionService::now_ns() const {
  return steady_ns() + clock_skew_ns_.load(std::memory_order_relaxed);
}

std::future<AdmissionResponse> AdmissionService::submit(
    AdmissionRequest request) {
  submitted_.fetch_add(1);
  Pending item;
  item.request = std::move(request);
  if (item.request.time_budget.is_positive()) {
    item.deadline_ns = now_ns() + item.request.time_budget.count();
  }
  std::future<AdmissionResponse> future = item.promise.get_future();
  if (stopping_.load()) {
    AdmissionResponse resp;
    resp.id = item.request.id;
    resp.status = ResponseStatus::kShutdown;
    resp.detail = "service is stopping";
    rejected_shutdown_.fetch_add(1);
    item.promise.set_value(std::move(resp));
    return future;
  }
  const std::uint64_t id = item.request.id;
  if (!queue_.try_push(std::move(item))) {
    // `item` was not consumed, so its promise is still ours to keep.
    AdmissionResponse resp;
    resp.id = id;
    if (queue_.closed()) {
      resp.status = ResponseStatus::kShutdown;
      resp.detail = "service is stopping";
      rejected_shutdown_.fetch_add(1);
    } else {
      resp.status = ResponseStatus::kRejectedFull;
      resp.retry_after = estimate_retry_after();
      rejected_full_.fetch_add(1);
    }
    item.promise.set_value(std::move(resp));
    return future;
  }
  accepted_.fetch_add(1);
  return future;
}

AdmissionResponse AdmissionService::admit(AdmissionRequest request) {
  return submit(std::move(request)).get();
}

Duration AdmissionService::estimate_retry_after() const {
  double ema;
  {
    const std::lock_guard<std::mutex> lock(ctrl_mu_);
    ema = ema_latency_ns_;
  }
  const double backlog = static_cast<double>(queue_.depth());
  const double drain_ns = backlog * ema / static_cast<double>(opts_.workers);
  const std::int64_t floor_ns = Duration::ms(1).count();
  const auto hint = static_cast<std::int64_t>(drain_ns);
  return Duration::ns(hint > floor_ns ? hint : floor_ns);
}

// ---------------------------------------------------------------------------
// The degradation ladder.
// ---------------------------------------------------------------------------

AnalysisTier AdmissionService::update_tier(std::size_t depth_at_pop) {
  const DegradationPolicy& p = opts_.degradation;
  const double fill = static_cast<double>(depth_at_pop) /
                      static_cast<double>(queue_.capacity());
  const std::lock_guard<std::mutex> lock(ctrl_mu_);
  // Each pressure flag latches at its threshold and releases only below
  // threshold * recover_factor — the hysteresis that keeps a fill
  // hovering at a boundary from flapping the tier on every request.
  if (fill >= p.degrade_rta_at) {
    rta_degraded_ = true;
  } else if (fill <= p.degrade_rta_at * p.recover_factor) {
    rta_degraded_ = false;
  }
  if (fill >= p.degrade_bound_at) {
    bound_degraded_ = true;
  } else if (fill <= p.degrade_bound_at * p.recover_factor) {
    bound_degraded_ = false;
  }
  if (p.latency_degrade_at.is_positive()) {
    const double threshold = static_cast<double>(p.latency_degrade_at.count());
    if (ema_latency_ns_ >= threshold) {
      latency_degraded_ = true;
    } else if (ema_latency_ns_ <= threshold * p.recover_factor) {
      latency_degraded_ = false;
    }
  }
  AnalysisTier next = AnalysisTier::kExact;
  if (bound_degraded_) {
    next = AnalysisTier::kBound;
  } else if (rta_degraded_ || latency_degraded_) {
    next = AnalysisTier::kRtaOnly;
  }
  if (next > tier_) degrade_steps_.fetch_add(1);
  if (next < tier_) recover_steps_.fetch_add(1);
  tier_ = next;
  return next;
}

void AdmissionService::note_latency(Duration elapsed) {
  const auto x = static_cast<double>(elapsed.count());
  const std::lock_guard<std::mutex> lock(ctrl_mu_);
  ema_latency_ns_ =
      ema_latency_ns_ == 0.0 ? x : 0.8 * ema_latency_ns_ + 0.2 * x;
}

// ---------------------------------------------------------------------------
// Workers.
// ---------------------------------------------------------------------------

void AdmissionService::worker_loop() {
  WorkerContext ctx;
  while (auto popped = queue_.pop()) {
    Pending& item = popped->first;
    const AnalysisTier tier = update_tier(popped->second);
    const std::int64_t t0 = steady_ns();
    AdmissionResponse resp;
    try {
      resp = process(ctx, item, tier);
    } catch (const std::exception& e) {
      resp = AdmissionResponse{};
      resp.id = item.request.id;
      resp.status = ResponseStatus::kWorkerError;
      resp.detail = e.what();
      worker_errors_.fetch_add(1);
    } catch (...) {
      // A non-std::exception throw escaping the thread entrypoint would
      // std::terminate() the whole service and abandon the promise.
      resp = AdmissionResponse{};
      resp.id = item.request.id;
      resp.status = ResponseStatus::kWorkerError;
      resp.detail = "analysis threw a non-standard exception";
      worker_errors_.fetch_add(1);
    }
    note_latency(Duration::ns(steady_ns() - t0));
    item.promise.set_value(std::move(resp));
  }
}

AdmissionResponse AdmissionService::process(WorkerContext& ctx, Pending& item,
                                            AnalysisTier tier) {
  AdmissionResponse resp;
  resp.id = item.request.id;

  const std::uint64_t n = processed_.fetch_add(1) + 1;
  const ServiceFaultPlan& faults = opts_.faults;
  if (faults.clock_skip_every != 0 && n % faults.clock_skip_every == 0) {
    clock_skew_ns_.fetch_add(faults.clock_skip.count());
    clock_skips_.fetch_add(1);
    faults_injected_.fetch_add(1);
  }

  if (item.deadline_ns != 0 && now_ns() > item.deadline_ns) {
    resp.status = ResponseStatus::kShedDeadline;
    resp.detail = "deadline passed while queued";
    shed_deadline_.fetch_add(1);
    return resp;
  }

  sched::TaskSet ts;
  try {
    RTFT_EXPECTS(!item.request.tasks.empty(),
                 "admission request carries no tasks");
    for (const sched::TaskParams& params : item.request.tasks) {
      ts.add(params);
    }
  } catch (const std::exception& e) {
    resp.status = ResponseStatus::kInvalidRequest;
    resp.detail = e.what();
    invalid_.fetch_add(1);
    return resp;
  }

  const sched::CanonicalTaskSet key = sched::canonicalize(ts);

  if (faults.corrupt_cache_every != 0 && n % faults.corrupt_cache_every == 0) {
    if (cache_.corrupt(key)) faults_injected_.fetch_add(1);
  }
  if (faults.worker_throw_every != 0 && n % faults.worker_throw_every == 0) {
    faults_injected_.fetch_add(1);
    throw std::runtime_error("injected worker fault");
  }

  if (std::optional<CachedVerdict> hit = cache_.lookup(key, tier)) {
    resp.status = ResponseStatus::kAnswered;
    resp.verdict = hit->verdict;
    resp.tier = hit->tier;
    resp.cache_hit = true;
    resp.utilization = hit->utilization;
    answered_.fetch_add(1);
    answered_by_tier_[static_cast<std::size_t>(hit->tier)].fetch_add(1);
    return resp;
  }

  bool cross_checked = false;
  const CachedVerdict computed = compute(ctx, ts, tier, cross_checked);
  cache_.insert(key, computed);

  resp.status = ResponseStatus::kAnswered;
  resp.verdict = computed.verdict;
  resp.tier = computed.tier;
  resp.cross_checked = cross_checked;
  resp.utilization = computed.utilization;
  answered_.fetch_add(1);
  answered_by_tier_[static_cast<std::size_t>(computed.tier)].fetch_add(1);
  return resp;
}

CachedVerdict AdmissionService::compute(WorkerContext& ctx,
                                        const sched::TaskSet& ts,
                                        AnalysisTier tier,
                                        bool& cross_checked) {
  CachedVerdict out;
  out.tier = tier;
  out.utilization = ts.utilization();

  if (tier == AnalysisTier::kBound) {
    // Constant-time floor of the ladder: the exact load test decides
    // U > 1; below that only the sufficient bounds may admit, and only
    // on the task shapes they are valid for.
    const sched::LoadVerdict load = sched::load_test(ts);
    if (load == sched::LoadVerdict::kAboveOne) {
      out.verdict = AdmissionVerdict::kReject;
    } else if (bounds_applicable(ts) && (sched::passes_hyperbolic(ts) ||
                                         sched::passes_liu_layland(ts))) {
      out.verdict = AdmissionVerdict::kAdmit;
    } else {
      out.verdict = AdmissionVerdict::kInconclusive;
    }
    return out;
  }

  const sched::FeasibilityReport report = sched::analyze(ts);
  out.utilization = report.utilization;
  out.verdict = report.feasible ? AdmissionVerdict::kAdmit
                                : AdmissionVerdict::kReject;
  if (tier == AnalysisTier::kRtaOnly) return out;

  // kExact: replay the set through the virtual-time engine and compare.
  Duration max_period = Duration::zero();
  for (const sched::TaskParams& t : ts.tasks()) {
    if (t.period > max_period) max_period = t.period;
  }
  const Duration horizon = max_period * opts_.horizon_periods;
  std::int64_t jobs = 0;
  for (const sched::TaskParams& t : ts.tasks()) {
    jobs += (horizon.count() + t.period.count() - 1) / t.period.count();
    if (jobs > opts_.max_cross_check_jobs) break;
  }
  if (jobs > opts_.max_cross_check_jobs) {
    // A 1 ns period next to a 1000 s one must not monopolize a worker:
    // keep the analytic answer and tag it honestly as not cross-checked.
    // Mark the tier as this key's ceiling so exact-tier lookups still
    // hit the cache — recomputing would skip the cross-check again.
    out.tier = AnalysisTier::kRtaOnly;
    out.tier_is_ceiling = true;
    oversize_cross_check_skips_.fetch_add(1);
    return out;
  }

  rt::EngineOptions eopts;
  eopts.horizon = Instant::epoch() + horizon;
  ctx.engine.reset(eopts);
  std::vector<rt::TaskHandle> handles;
  handles.reserve(ts.size());
  for (const sched::TaskParams& t : ts.tasks()) {
    // Zero the offsets: synchronous release is the critical instant the
    // analysis assumes; simulating a client's phasing instead would make
    // honest disagreements look like library bugs.
    sched::TaskParams aligned = t;
    aligned.offset = Duration::zero();
    handles.push_back(ctx.engine.add_task(aligned));
  }
  ctx.engine.run();
  std::int64_t missed = 0;
  for (const rt::TaskHandle h : handles) missed += ctx.engine.stats(h).missed;
  cross_checked = true;
  const bool engine_clean = missed == 0;
  if (engine_clean != report.feasible) {
    // RTA is a sound worst case, so this is a library bug surfaced by
    // traffic; count it loudly, answer from the analysis.
    cross_check_disagreements_.fetch_add(1);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Observation.
// ---------------------------------------------------------------------------

ServiceMetrics AdmissionService::metrics() const {
  ServiceMetrics m;
  m.submitted = submitted_.load();
  m.accepted = accepted_.load();
  m.rejected_full = rejected_full_.load();
  m.rejected_shutdown = rejected_shutdown_.load();
  m.shed_deadline = shed_deadline_.load();
  m.invalid = invalid_.load();
  m.worker_errors = worker_errors_.load();
  m.answered = answered_.load();
  for (std::size_t i = 0; i < 3; ++i) {
    m.answered_by_tier[i] = answered_by_tier_[i].load();
  }
  const VerdictCacheStats cache = cache_.stats();
  m.cache_hits = cache.hits;
  m.cache_misses = cache.misses;
  m.cache_corruption_detected = cache.corruption_detected;
  m.cache_evictions = cache.evictions;
  m.degrade_steps = degrade_steps_.load();
  m.recover_steps = recover_steps_.load();
  m.clock_skips = clock_skips_.load();
  m.faults_injected = faults_injected_.load();
  m.cross_check_disagreements = cross_check_disagreements_.load();
  m.oversize_cross_check_skips = oversize_cross_check_skips_.load();
  m.max_queue_depth = queue_.max_depth();
  m.current_tier = current_tier();
  return m;
}

AnalysisTier AdmissionService::current_tier() const {
  const std::lock_guard<std::mutex> lock(ctrl_mu_);
  return tier_;
}

}  // namespace rtft::serve
