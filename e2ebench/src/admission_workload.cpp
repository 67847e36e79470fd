// admission-mixed: the admission service answering a skewed stream of
// task sets — a hot subset that fits the verdict cache plus a uniform
// tail over the whole population.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <unordered_set>
#include <vector>

#include "common/random.hpp"
#include "load.hpp"
#include "sched/canonical.hpp"
#include "sched/feasibility.hpp"
#include "serve/service.hpp"
#include "sweep/generators.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace rtft;

namespace {

constexpr std::size_t kPopulation = 8192;
constexpr std::size_t kHot = 512;
constexpr double kHotShare = 0.7;
constexpr std::size_t kWarmupRequests = 4096;
/// Closed-loop window: below the ladder's first degrade threshold
/// (half of the 64-deep queue), so capacity is measured at the exact
/// tier.
constexpr std::size_t kWindow = 16;
/// Open-loop rates, frozen at about 20% and 40% of the measured
/// two-worker capacity (throughput.w2, 11.5k/s). The generator is
/// sometimes held up for 10-16 ms on a shared 4-vCPU machine, and its
/// catch-up burst at 60% overflowed the 64-deep queue.
constexpr double kLightRate = 2300.0;
constexpr double kHeavyRate = 4600.0;
/// Generous: no request should be shed on this workload.
constexpr Duration kTimeBudget = Duration::s(2);
/// Cold sets timed standalone in the traced run.
constexpr std::size_t kStandaloneKeys = 512;

struct Population {
  std::vector<std::vector<sched::TaskParams>> sets;
  std::vector<char> feasible;  ///< one-shot sched::analyze oracle.
  std::vector<std::uint32_t> hot;
  std::vector<std::uint32_t> cold;  ///< standalone keys, outside `hot`.
  bool distinct = false;
  double generate_s = 0.0;  ///< time spent in the task-set generator.
};

Population build_population(std::uint64_t seed) {
  Population pop;
  pop.sets.reserve(kPopulation);
  pop.feasible.reserve(kPopulation);
  std::unordered_set<std::uint64_t> keys;
  bool distinct = true;
  for (std::size_t i = 0; i < kPopulation; ++i) {
    // 2..24 tasks; utilization targets spread over [0.3, 0.95] by a
    // golden-ratio sequence, so every size sees the whole range. U = 1
    // exactly is kept out (see README: unbounded busy periods).
    RandomTaskSetSpec spec;
    spec.tasks = 2 + i % 23;
    const double frac =
        std::fmod(0.6180339887498949 * static_cast<double>(i + 1), 1.0);
    spec.total_utilization = 0.3 + 0.65 * frac;
    spec.min_period = Duration::ms(10);
    spec.max_period = Duration::ms(1000);
    const Clock::time_point t0 = Clock::now();
    const sched::TaskSet ts =
        sweep::make_seeded_task_set(sweep::scenario_seed(seed, i), spec);
    pop.generate_s += seconds_between(t0, Clock::now());
    distinct = keys.insert(sched::canonical_hash(ts)).second && distinct;
    pop.feasible.push_back(sched::analyze(ts).feasible ? 1 : 0);
    pop.sets.push_back(ts.tasks());
  }
  pop.distinct = distinct;
  // Hot subset: kHot distinct indices, a seeded partial shuffle.
  std::vector<std::uint32_t> order(kPopulation);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  Rng rng(seed ^ 0x6a09e667f3bcc909ULL);
  for (std::size_t i = 0; i < kHot + kStandaloneKeys; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.next_in(static_cast<std::int64_t>(i), kPopulation - 1));
    std::swap(order[i], order[j]);
  }
  pop.hot.assign(order.begin(), order.begin() + kHot);
  pop.cold.assign(order.begin() + kHot, order.begin() + kHot + kStandaloneKeys);
  return pop;
}

/// The request mix: 70% from the hot subset, 30% uniform over all.
class RequestStream {
 public:
  RequestStream(const Population& pop, std::uint64_t seed)
      : pop_(pop), rng_(seed ^ 0xbb67ae8584caa73bULL) {}

  std::uint32_t next() {
    if (rng_.next_double() < kHotShare) {
      return pop_.hot[static_cast<std::size_t>(rng_.next_in(0, kHot - 1))];
    }
    return static_cast<std::uint32_t>(rng_.next_in(0, kPopulation - 1));
  }

 private:
  const Population& pop_;
  Rng rng_;
};

/// Per-phase response accounting, checked against the oracle.
struct Tally {
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;
  std::uint64_t exact = 0;
  std::uint64_t not_answered = 0;  ///< rejected-full, shed, invalid, error.
  std::uint64_t wrong = 0;         ///< a verdict the oracle contradicts.

  void check(const serve::AdmissionResponse& r, bool feasible) {
    if (r.status != serve::ResponseStatus::kAnswered) {
      ++not_answered;
      return;
    }
    ++answered;
    const bool admit = r.verdict == serve::AdmissionVerdict::kAdmit;
    const bool reject = r.verdict == serve::AdmissionVerdict::kReject;
    if (r.tier == serve::AnalysisTier::kBound) {
      // Bound answers may be inconclusive, never wrong.
      if ((admit && !feasible) || (reject && feasible)) ++wrong;
      return;
    }
    if (r.tier == serve::AnalysisTier::kExact) ++exact;
    if (admit != feasible || reject == feasible) ++wrong;
  }
};

serve::AdmissionRequest make_request(const Population& pop, std::uint32_t idx,
                                     std::uint64_t id) {
  serve::AdmissionRequest req;
  req.id = id;
  req.tasks = pop.sets[idx];
  req.time_budget = kTimeBudget;
  return req;
}

serve::ServiceOptions service_options(std::size_t workers) {
  serve::ServiceOptions o;
  o.workers = workers;
  o.queue_capacity = 64;
  o.cache_capacity = 1024;
  return o;
}

/// Exact-tier answers over closed-loop time, accumulated across calls so
/// turns of one service can interleave with another's.
struct Capacity {
  std::uint64_t exact = 0;
  double seconds = 0.0;
  /// The mean rate over every turn: steadier across runs than a median
  /// of short slices on a machine whose speed drifts.
  [[nodiscard]] double rate() const {
    return seconds > 0.0 ? static_cast<double>(exact) / seconds : 0.0;
  }
};

/// Closed loop with a fixed in-flight window, for `seconds`.
void closed_loop(serve::AdmissionService& svc, const Population& pop,
                 RequestStream& stream, std::uint64_t& next_id, double seconds,
                 Tally& tally, SpanLog* log, Capacity& cap) {
  struct InFlight {
    std::uint32_t idx;
    std::future<serve::AdmissionResponse> response;
  };
  std::deque<InFlight> window;
  const auto submit = [&] {
    const std::uint32_t idx = stream.next();
    serve::AdmissionRequest req = make_request(pop, idx, next_id);
    const Scope s(log, "submit", kNoParent, next_id);
    ++next_id;
    ++tally.submitted;
    window.push_back({idx, svc.submit(std::move(req))});
  };
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < kWindow; ++i) submit();
  while (!window.empty()) {
    InFlight f = std::move(window.front());
    window.pop_front();
    const serve::AdmissionResponse r = f.response.get();
    const std::uint64_t exact_before = tally.exact;
    tally.check(r, pop.feasible[f.idx] != 0);
    cap.exact += tally.exact - exact_before;
    if (seconds_between(start, Clock::now()) < seconds) submit();
  }
  cap.seconds += seconds_between(start, Clock::now());
}

void check_identities(const serve::ServiceMetrics& m, const std::string& tag,
                      Result& result) {
  result.gate(m.submitted == m.accepted + m.rejected_full + m.rejected_shutdown,
              tag + ": submitted = accepted + rejected");
  result.gate(m.accepted == m.answered + m.shed_deadline + m.invalid +
                                m.worker_errors,
              tag + ": accepted = answered + shed + invalid + errors");
  result.gate(m.cross_check_disagreements == 0,
              tag + ": no cross-check disagreements");
}

void check_tally(const Tally& t, const std::string& tag, Result& result) {
  result.gate(t.wrong == 0, tag + ": every verdict agrees with the oracle");
  result.attempted += t.submitted;
  result.failed += t.not_answered;
}

/// One open-loop phase against `svc`: latency from due time, generator
/// lateness, and the share of answers given at the exact tier.
struct OpenPhase {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool p99_supported = false;  ///< >= 10 samples beyond the p99.
  Percentiles lag;
  double exact_frac = 0.0;
};

OpenPhase open_loop(serve::AdmissionService& svc, const Population& pop,
                    RequestStream& stream, std::uint64_t& next_id,
                    double rate, double seconds, const char* name,
                    Result& result, SpanLog* gen_log, SpanLog* col_log) {
  // The request sequence is drawn before the phase so the generator
  // only copies parameters at each due time.
  const auto total = static_cast<std::uint64_t>(seconds * rate);
  std::vector<std::uint32_t> idx(total);
  for (auto& i : idx) i = stream.next();
  const std::uint64_t base = next_id;
  next_id += total;
  if (gen_log) gen_log->reserve(total);
  if (col_log) col_log->reserve(total);
  Tally tally;
  const OpenLoopOutcome out = run_open_loop<serve::AdmissionResponse>(
      rate, seconds,
      [&](std::uint64_t k) {
        serve::AdmissionRequest req = make_request(pop, idx[k], base + k);
        const Scope s(gen_log, "submit", kNoParent, base + k);
        return svc.submit(std::move(req));
      },
      [&](std::uint64_t k, serve::AdmissionResponse&& r, Clock::time_point due,
          Clock::time_point end) {
        if (col_log) col_log->record(name, kNoParent, base + k, due, end);
        tally.check(r, pop.feasible[idx[k]] != 0);
      });
  tally.submitted = out.sent;
  check_tally(tally, name, result);
  OpenPhase phase;
  std::vector<double> sorted = out.latency_ms;
  std::sort(sorted.begin(), sorted.end());
  phase.p50_ms = sorted_percentile(sorted, 50.0);
  phase.p99_ms = sorted_percentile(sorted, 99.0);
  const auto p99_rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(sorted.size())));
  phase.p99_supported = sorted.size() - p99_rank >= 10;
  phase.lag = summarize(out.lag_ms);
  phase.exact_frac = tally.answered == 0
                         ? 0.0
                         : static_cast<double>(tally.exact) /
                               static_cast<double>(tally.answered);
  return phase;
}

void warm_up(serve::AdmissionService& svc, const Population& pop,
             RequestStream& stream, std::uint64_t& next_id) {
  std::deque<std::future<serve::AdmissionResponse>> window;
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    if (window.size() == kWindow) {
      (void)window.front().get();
      window.pop_front();
    }
    window.push_back(svc.submit(make_request(pop, stream.next(), next_id++)));
  }
  while (!window.empty()) {
    (void)window.front().get();
    window.pop_front();
  }
}

}  // namespace

void run_admission_workload(const RunConfig& cfg, Result& result) {
  // Set-up: population, canonical-distinctness check, oracle. It is
  // repeated every few turns of the untraced run, so its median spans
  // the whole run.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    Population p = build_population(cfg.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    return p;
  };
  const Population pop = set_up();
  result.gate(pop.distinct, "population: every task set is distinct");

  RequestStream stream(pop, cfg.seed);
  std::uint64_t next_id = 0;

  if (!cfg.trace) {
    // Both services stay up; their closed loops alternate in one-second
    // turns so each capacity figure spans the whole run.
    serve::AdmissionService svc1(service_options(1));
    serve::AdmissionService svc2(service_options(2));
    warm_up(svc1, pop, stream, next_id);
    warm_up(svc2, pop, stream, next_id);
    Tally tally1, tally2;
    Capacity cap1, cap2;
    const Clock::time_point start = Clock::now();
    for (int turn = 1; seconds_between(start, Clock::now()) < cfg.seconds;
         ++turn) {
      closed_loop(svc1, pop, stream, next_id, 1.0, tally1, nullptr, cap1);
      closed_loop(svc2, pop, stream, next_id, 1.0, tally2, nullptr, cap2);
      if (turn % 3 == 0) {
        result.gate(set_up().feasible == pop.feasible,
                    "set-up is deterministic");
      }
    }
    svc1.stop();
    svc2.stop();
    check_tally(tally1, "w1", result);
    check_tally(tally2, "w2", result);
    check_identities(svc1.metrics(), "w1", result);
    check_identities(svc2.metrics(), "w2", result);
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("throughput.w1", cap1.rate(), "1/s");
    result.metric("throughput.w2", cap2.rate(), "1/s");
    return;
  }

  // Traced run: the same capacity loop untraced and traced (the tracing
  // overhead), then the open-loop rates with per-request spans, then the
  // exact-miss path timed standalone on cold keys.
  SpanLog gen_log, col_log;
  serve::AdmissionService svc(service_options(2));
  const Clock::time_point w0 = Clock::now();
  warm_up(svc, pop, stream, next_id);
  const double warmup_s = seconds_between(w0, Clock::now());
  // Untraced and traced capacity slices alternate, so both see the same
  // machine load.
  Tally untraced, traced;
  Capacity cap_untraced, cap_traced;
  const Clock::time_point cap_start = Clock::now();
  while (seconds_between(cap_start, Clock::now()) < 0.3 * cfg.seconds) {
    closed_loop(svc, pop, stream, next_id, 1.0, untraced, nullptr,
                cap_untraced);
    closed_loop(svc, pop, stream, next_id, 1.0, traced, &gen_log, cap_traced);
  }
  check_tally(untraced, "capacity", result);
  check_tally(traced, "capacity traced", result);
  const OpenPhase light =
      open_loop(svc, pop, stream, next_id, kLightRate, 0.2 * cfg.seconds,
                "light", result, &gen_log, &col_log);
  const OpenPhase heavy =
      open_loop(svc, pop, stream, next_id, kHeavyRate, 0.2 * cfg.seconds,
                "heavy", result, &gen_log, &col_log);
  svc.stop();
  const serve::ServiceMetrics m = svc.metrics();
  check_identities(m, "w2", result);
  result.gate(light.p99_supported && heavy.p99_supported,
              "open loops hold at least ten samples beyond the p99");

  // Standalone exact-miss path on cold keys: canonicalize, analyze, and
  // the engine cross-check the exact tier runs.
  SpanLog solo;
  rt::EngineOptions placeholder;
  placeholder.horizon = Instant::from_ns(1);
  rt::Engine engine(placeholder);
  trace::CountingSink counting;
  std::uint64_t events = 0, runs = 0, disagreements = 0;
  for (const std::uint32_t idx : pop.cold) {
    const Scope miss(&solo, "exact_miss", kNoParent, idx);
    sched::TaskSet ts;
    for (const sched::TaskParams& p : pop.sets[idx]) ts.add(p);
    {
      const Scope s(&solo, "canonical", miss.id(), idx);
      (void)sched::canonicalize(ts);
    }
    sched::FeasibilityReport report;
    {
      const Scope s(&solo, "rta", miss.id(), idx);
      report = sched::analyze(ts);
    }
    rt::EngineOptions eopts;
    Duration max_period = Duration::zero();
    for (const sched::TaskParams& t : ts.tasks()) {
      max_period = std::max(max_period, t.period);
    }
    eopts.horizon = Instant::epoch() +
                    max_period * service_options(2).horizon_periods;
    eopts.sink = &counting;
    counting.reset();
    engine.reset(eopts);
    for (const sched::TaskParams& t : ts.tasks()) {
      sched::TaskParams aligned = t;
      aligned.offset = Duration::zero();
      (void)engine.add_task(aligned);
    }
    {
      const Scope s(&solo, "engine.cross_check", miss.id(), idx);
      engine.run();
    }
    for (std::size_t k = 0; k < trace::kEventKindCount; ++k) {
      events += static_cast<std::uint64_t>(
          counting.total(static_cast<trace::EventKind>(k)));
    }
    ++runs;
    const bool clean = counting.total(trace::EventKind::kDeadlineMiss) == 0;
    if (clean != report.feasible) ++disagreements;
  }
  result.gate(disagreements == 0, "standalone cross-check agrees with RTA");

  std::map<std::string, SpanLog::Totals> t = solo.totals();
  const std::map<std::string, SpanLog::Totals> gen = gen_log.totals();
  const double engine_ns = t["engine.cross_check"].self_ns;
  const auto hits = static_cast<double>(m.cache_hits);
  const auto lookups = static_cast<double>(m.cache_hits + m.cache_misses);

  result.metric("runtime.engine.ns_per_event",
                events ? engine_ns / static_cast<double>(events) : 0.0, "ns");
  result.metric("runtime.engine.events_per_scenario",
                runs ? static_cast<double>(events) / static_cast<double>(runs)
                     : 0.0,
                "count");
  result.metric("runtime.engine.us_per_scenario",
                mean_us(t, "engine.cross_check"), "us");
  result.metric("sched.rta.us_per_call", mean_us(t, "rta"), "us");
  result.metric("sched.canonical.us_per_call", mean_us(t, "canonical"), "us");
  result.metric("sweep.generate.us_per_call",
                pop.generate_s * 1e6 / static_cast<double>(kPopulation), "us");
  result.metric("serve.exact_miss.us", mean_us(t, "exact_miss", false), "us");
  result.metric("serve.submit.us", mean_us(gen, "submit"), "us");
  result.metric("serve.cache.hit_frac", lookups > 0 ? hits / lookups : 0.0,
                "ratio");
  result.metric("serve.cache.evictions", static_cast<double>(m.cache_evictions),
                "count");
  result.metric("serve.queue.max_depth", static_cast<double>(m.max_queue_depth),
                "count");
  result.metric("serve.rejected_full", static_cast<double>(m.rejected_full),
                "count");
  result.metric("serve.shed_deadline", static_cast<double>(m.shed_deadline),
                "count");
  result.metric("serve.degrade_steps", static_cast<double>(m.degrade_steps),
                "count");
  result.metric("serve.tier.exact", static_cast<double>(m.answered_by_tier[0]),
                "count");
  result.metric("serve.tier.rta", static_cast<double>(m.answered_by_tier[1]),
                "count");
  result.metric("serve.tier.bound", static_cast<double>(m.answered_by_tier[2]),
                "count");
  result.metric("serve.generator_lag_ms",
                std::max(light.lag.tail, heavy.lag.tail), "ms");
  result.metric("serve.warmup_s", warmup_s, "s");
  result.metric("latency_p50_ms.light", light.p50_ms, "ms");
  result.metric("latency_p99_ms.light", light.p99_ms, "ms");
  result.metric("latency_p50_ms.heavy", heavy.p50_ms, "ms");
  result.metric("latency_p99_ms.heavy", heavy.p99_ms, "ms");
  result.metric("exact_frac.heavy", heavy.exact_frac, "ratio");
  result.metric("trace.overhead_frac",
                cap_untraced.rate() / cap_traced.rate() - 1.0, "ratio");

  const std::string path = cfg.out_dir + "/spans-" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".csv";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs("thread,id,parent,name,item,start_ns,end_ns\n", f);
    gen_log.write_csv(f, 0);
    col_log.write_csv(f, 1);
    solo.write_csv(f, 2);
    std::fclose(f);
  }
}

}  // namespace e2e
