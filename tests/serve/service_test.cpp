#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "sched/feasibility.hpp"
#include "sched/response_time.hpp"
#include "support/paper_systems.hpp"
#include "support/random_sets.hpp"

namespace rtft::serve {
namespace {

using namespace rtft::literals;
using rtft::testsupport::table1_system;
using rtft::testsupport::table2_system;

AdmissionRequest request_for(const sched::TaskSet& ts, std::uint64_t id = 0) {
  AdmissionRequest req;
  req.id = id;
  req.tasks = ts.tasks();
  return req;
}

ServiceOptions quiet_options() {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 64;  // deep enough that unit tests stay exact-tier.
  return opts;
}

TEST(AdmissionService, ExactTierMatchesTheOneShotOracle) {
  AdmissionService service{quiet_options()};
  const AdmissionResponse feasible =
      service.admit(request_for(table2_system(), 1));
  EXPECT_EQ(feasible.id, 1u);
  EXPECT_EQ(feasible.status, ResponseStatus::kAnswered);
  EXPECT_EQ(feasible.verdict, AdmissionVerdict::kAdmit);
  EXPECT_EQ(feasible.tier, AnalysisTier::kExact);
  EXPECT_TRUE(feasible.cross_checked);
  EXPECT_FALSE(feasible.cache_hit);
  EXPECT_DOUBLE_EQ(feasible.utilization,
                   sched::analyze(table2_system()).utilization);

  const AdmissionResponse infeasible =
      service.admit(request_for(table1_system(), 2));
  EXPECT_EQ(infeasible.status, ResponseStatus::kAnswered);
  EXPECT_EQ(infeasible.verdict, AdmissionVerdict::kReject);
  EXPECT_EQ(infeasible.tier, AnalysisTier::kExact);

  // The engine replay agreed with the analysis on both.
  EXPECT_EQ(service.metrics().cross_check_disagreements, 0u);
}

TEST(AdmissionService, RepeatedQueriesHitTheCacheEvenRenamed) {
  AdmissionService service{quiet_options()};
  const AdmissionResponse first =
      service.admit(request_for(table2_system(), 1));
  EXPECT_FALSE(first.cache_hit);

  // Same parameters, different task names: canonical identity matches.
  AdmissionRequest renamed = request_for(table2_system(), 2);
  for (std::size_t i = 0; i < renamed.tasks.size(); ++i) {
    renamed.tasks[i].name = "renamed" + std::to_string(i);
  }
  const AdmissionResponse second = service.admit(std::move(renamed));
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.verdict, first.verdict);
  EXPECT_EQ(second.tier, AnalysisTier::kExact);
  EXPECT_EQ(service.metrics().cache_hits, 1u);
}

TEST(AdmissionService, PoisonedRequestsAnswerInvalidInsteadOfThrowing) {
  AdmissionService service{quiet_options()};

  const AdmissionResponse empty = service.admit(AdmissionRequest{7, {}, {}});
  EXPECT_EQ(empty.status, ResponseStatus::kInvalidRequest);
  EXPECT_FALSE(empty.detail.empty());

  AdmissionRequest dup = request_for(table2_system(), 8);
  dup.tasks.push_back(dup.tasks.front());  // duplicate name.
  EXPECT_EQ(service.admit(std::move(dup)).status,
            ResponseStatus::kInvalidRequest);

  AdmissionRequest bad = request_for(table2_system(), 9);
  bad.tasks[0].period = Duration::zero();
  EXPECT_EQ(service.admit(std::move(bad)).status,
            ResponseStatus::kInvalidRequest);

  // The service shrugged all three off and still answers normally.
  EXPECT_EQ(service.admit(request_for(table2_system(), 10)).status,
            ResponseStatus::kAnswered);
  EXPECT_EQ(service.metrics().invalid, 3u);
}

TEST(AdmissionService, FullQueueRejectsWithRetryAfter) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  opts.autostart = false;  // no workers: the queue cannot drain.
  AdmissionService service{opts};

  std::vector<std::future<AdmissionResponse>> accepted;
  accepted.push_back(service.submit(request_for(table2_system(), 1)));
  accepted.push_back(service.submit(request_for(table2_system(), 2)));
  auto refused = service.submit(request_for(table2_system(), 3));
  // The rejection resolves immediately, without any worker running.
  const AdmissionResponse resp = refused.get();
  EXPECT_EQ(resp.status, ResponseStatus::kRejectedFull);
  EXPECT_TRUE(resp.retry_after.is_positive());

  service.start();  // accepted requests are still answered.
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().status, ResponseStatus::kAnswered);
  }
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.submitted, 3u);
  EXPECT_EQ(m.accepted, 2u);
  EXPECT_EQ(m.rejected_full, 1u);
  EXPECT_LE(m.max_queue_depth, opts.queue_capacity);
}

TEST(AdmissionService, ExpiredRequestsAreShedNotAnsweredLate) {
  ServiceOptions opts = quiet_options();
  opts.autostart = false;
  AdmissionService service{opts};

  AdmissionRequest stale = request_for(table2_system(), 1);
  stale.time_budget = Duration::us(1);
  auto future = service.submit(std::move(stale));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.start();  // by now the budget has long passed.
  const AdmissionResponse resp = future.get();
  EXPECT_EQ(resp.status, ResponseStatus::kShedDeadline);
  EXPECT_EQ(service.metrics().shed_deadline, 1u);
}

TEST(AdmissionService, LadderDegradesUnderDepthAndRecoversWhenDrained) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 10;
  opts.autostart = false;
  // Defaults: rta sheds at fill 0.5, bounds at 0.8, recovery at half.
  AdmissionService service{opts};

  // Ten distinct requests (costs differ) so the cache cannot short-cut.
  std::vector<std::future<AdmissionResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    sched::TaskSet ts;
    ts.add(sched::TaskParams{"a", 2, Duration::ms(1 + i), 100_ms, 100_ms,
                             Duration::zero()});
    ts.add(sched::TaskParams{"b", 1, 10_ms, 200_ms, 200_ms, Duration::zero()});
    futures.push_back(
        service.submit(request_for(ts, static_cast<std::uint64_t>(i))));
  }
  service.start();
  std::vector<AdmissionResponse> responses;
  responses.reserve(futures.size());
  for (auto& f : futures) responses.push_back(f.get());

  // Pop 1 sees fill 1.0 -> the floor of the ladder. The single worker
  // then drains FIFO, so fill decays one step per response and the
  // ladder climbs back: bound clears at fill <= 0.4, rta at <= 0.25.
  EXPECT_EQ(responses.front().tier, AnalysisTier::kBound);
  EXPECT_EQ(responses.back().tier, AnalysisTier::kExact);
  for (const AdmissionResponse& r : responses) {
    EXPECT_EQ(r.status, ResponseStatus::kAnswered);
  }
  const ServiceMetrics m = service.metrics();
  EXPECT_GE(m.degrade_steps, 1u);
  EXPECT_GE(m.recover_steps, 1u);
  EXPECT_EQ(m.current_tier, AnalysisTier::kExact);
  EXPECT_GT(m.answered_by_tier[2], 0u);  // some answers were bound-tier...
  EXPECT_GT(m.answered_by_tier[0], 0u);  // ...and the tail exact again.
}

TEST(AdmissionService, BoundTierIsHonest) {
  // Capacity 1 means every pop observes fill 1.0: permanently degraded
  // to the bound tier — a convenient harness for its semantics.
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  AdmissionService service{opts};

  // Low-utilization RM set with implicit deadlines: the hyperbolic
  // bound admits it.
  sched::TaskSet easy;
  easy.add(sched::TaskParams{"a", 2, 10_ms, 100_ms, 100_ms, Duration::zero()});
  easy.add(sched::TaskParams{"b", 1, 20_ms, 200_ms, 200_ms, Duration::zero()});
  const AdmissionResponse admit = service.admit(request_for(easy, 1));
  EXPECT_EQ(admit.tier, AnalysisTier::kBound);
  EXPECT_EQ(admit.verdict, AdmissionVerdict::kAdmit);

  // U > 1: provably infeasible even at the floor tier.
  sched::TaskSet overload;
  overload.add(
      sched::TaskParams{"a", 2, 60_ms, 100_ms, 100_ms, Duration::zero()});
  overload.add(
      sched::TaskParams{"b", 1, 50_ms, 100_ms, 100_ms, Duration::zero()});
  EXPECT_EQ(service.admit(request_for(overload, 2)).verdict,
            AdmissionVerdict::kReject);

  // Constrained deadlines (D < T): the sufficient bounds do not apply;
  // the honest degraded answer is "inconclusive", never a guess. The
  // exact tiers would admit this set (WCRT 29ms <= 70ms deadline).
  const AdmissionResponse careful =
      service.admit(request_for(table2_system(), 3));
  EXPECT_EQ(careful.tier, AnalysisTier::kBound);
  EXPECT_EQ(careful.verdict, AdmissionVerdict::kInconclusive);
}

TEST(AdmissionService, BoundTierRefusesEqualPriorityAcrossPeriods) {
  // Equal priorities across *different* periods are not RM: the model
  // (TaskSet::HP) makes equal-priority tasks mutually interfering, so
  // the short-period task suffers interference Liu-Layland/hyperbolic
  // never account for. This set passes both bounds (U = 0.8 <= LL(2),
  // (1.4)(1.4) <= 2) yet exact RTA rejects it (R_b = 440ms > 100ms):
  // admitting it from the bound tier would be degraded-and-*wrong*.
  sched::TaskSet trap;
  trap.add(sched::TaskParams{"a", 1, 400_ms, 1000_ms, 1000_ms,
                             Duration::zero()});
  trap.add(
      sched::TaskParams{"b", 1, 40_ms, 100_ms, 100_ms, Duration::zero()});
  ASSERT_FALSE(sched::analyze(trap).feasible);

  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;  // fill 1.0 at every pop: permanently kBound.
  AdmissionService service{opts};
  const AdmissionResponse resp = service.admit(request_for(trap, 1));
  EXPECT_EQ(resp.tier, AnalysisTier::kBound);
  EXPECT_EQ(resp.verdict, AdmissionVerdict::kInconclusive);
}

TEST(AdmissionService, OversizeCrossChecksFallBackToRtaOnly) {
  AdmissionService service{quiet_options()};

  // 30 s of work every 100 s next to 10 us every 100 us: the replay runs
  // to the end of the busy period, about 33.3 s, and would release some
  // 333k jobs of the fast task, past the 200k cap.
  sched::TaskSet mixed;
  mixed.add(sched::TaskParams{"fast", 2, Duration::us(10), Duration::us(100),
                              Duration::us(100), Duration::zero()});
  mixed.add(sched::TaskParams{"slow", 1, Duration::s(30), Duration::s(100),
                              Duration::s(100), Duration::zero()});
  const AdmissionResponse resp = service.admit(request_for(mixed, 1));
  EXPECT_EQ(resp.status, ResponseStatus::kAnswered);
  EXPECT_EQ(resp.tier, AnalysisTier::kRtaOnly);  // tagged honestly.
  EXPECT_FALSE(resp.cross_checked);
  EXPECT_EQ(resp.verdict, AdmissionVerdict::kAdmit);
  EXPECT_EQ(service.metrics().cross_check_skips, 1u);

  // The kRtaOnly answer is the strongest this key can ever get (the
  // cross-check is refused every time), so an exact-tier repeat must be
  // a cache hit — not a permanent miss that recomputes the full RTA on
  // every request for exactly the pathological sets the cap contains.
  const AdmissionResponse again = service.admit(request_for(mixed, 2));
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.tier, AnalysisTier::kRtaOnly);
  EXPECT_EQ(again.verdict, AdmissionVerdict::kAdmit);
  EXPECT_EQ(service.metrics().cross_check_skips, 1u);  // no rerun.

  // A 2^61 ns period: the replay ends with the one job's completion at
  // 100 us, and every date it forms fits in int64, so the set is
  // cross-checked. A deadline of int64 max, though, lies past int64 from
  // any date after the release: that set is oversize, never simulated.
  const std::pair<std::int64_t, bool> vast_shapes[] = {
      {std::int64_t{1} << 61, true},
      {std::numeric_limits<std::int64_t>::max(), false}};
  std::uint64_t id = 3;
  for (const auto& [deadline, replayed] : vast_shapes) {
    const sched::TaskParams params{"vast", 1, Duration::us(100),
                                   Duration::ns(std::int64_t{1} << 61),
                                   Duration::ns(deadline), Duration::zero()};
    sched::TaskSet vast;
    vast.add(params);
    const AdmissionResponse big = service.admit(request_for(vast, id++));
    EXPECT_EQ(big.status, ResponseStatus::kAnswered) << big.detail;
    EXPECT_EQ(big.tier,
              replayed ? AnalysisTier::kExact : AnalysisTier::kRtaOnly);
    EXPECT_EQ(big.cross_checked, replayed);
    EXPECT_EQ(big.verdict, AdmissionVerdict::kAdmit);
  }
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.cross_check_skips, 2u);
  EXPECT_EQ(m.cross_check_disagreements, 0u);
}

/// Answers `ts` at the exact tier; the engine replay must agree.
AdmissionResponse expect_cross_checked(const sched::TaskSet& ts) {
  AdmissionService service{quiet_options()};
  const AdmissionResponse resp = service.admit(request_for(ts, 1));
  EXPECT_EQ(resp.status, ResponseStatus::kAnswered);
  EXPECT_EQ(resp.tier, AnalysisTier::kExact);
  EXPECT_TRUE(resp.cross_checked);
  EXPECT_EQ(service.metrics().cross_check_disagreements, 0u);
  return resp;
}

sched::TaskSet two_tasks(Duration hi_cost, Duration hi_period, Duration cost,
                         Duration period, Duration deadline) {
  sched::TaskSet ts;
  ts.add(sched::TaskParams{"hi", 2, hi_cost, hi_period, hi_period,
                           Duration::zero()});
  ts.add(sched::TaskParams{"lo", 1, cost, period, deadline, Duration::zero()});
  return ts;
}

TEST(AdmissionService, ReplaysAFeasibleBusyPeriodOfSeveralJobs) {
  // D > T: "lo" completes at 7, 14 and 18 ms (responses 7, 8, 6 ms)
  // before its level busy period closes. The replay ends at 18 ms, and
  // its worst response must be the WCRT, 8 ms, at job 1.
  const sched::TaskSet ts = two_tasks(3_ms, 10_ms, 4_ms, 6_ms, 8_ms);
  const sched::PriorityView view(ts);
  const sched::RtaResult lo = sched::busy_period(view, 1, {}, {}, true);
  ASSERT_TRUE(lo.bounded);
  ASSERT_EQ(lo.jobs_examined, 3);
  ASSERT_EQ(lo.last_completion, 18_ms);
  EXPECT_EQ(expect_cross_checked(ts).verdict, AdmissionVerdict::kAdmit);
}

TEST(AdmissionService, ReplaysAnInfeasibleSetToItsFirstCertainMiss) {
  // With D = 7 ms the same set misses at job 1: the kernel stops once
  // its iterate passes 6 + 7 ms, and the engine must miss there once.
  const sched::TaskSet ts = two_tasks(3_ms, 10_ms, 4_ms, 6_ms, 7_ms);
  const sched::PriorityView view(ts);
  const sched::RtaResult lo = sched::busy_period(view, 1, {}, {}, true);
  ASSERT_EQ(lo.stop, sched::RtaStop::kMiss);
  ASSERT_EQ(lo.jobs_examined, 1);
  EXPECT_EQ(expect_cross_checked(ts).verdict, AdmissionVerdict::kReject);
}

TEST(AdmissionService, ALevelOverloadIsAnsweredFromTheAnalysis) {
  // D > T with a level load of 3/4 + 2/5: the kernel stops on the load
  // test and dates nothing. The set will miss, but no replay is sure to
  // reach the miss, so the exact tier answers from the analysis, at the
  // kRtaOnly ceiling and not cross-checked.
  const sched::TaskSet ts = two_tasks(2_ms, 5_ms, 3_ms, 4_ms, 6_ms);
  const sched::PriorityView view(ts);
  ASSERT_EQ(sched::busy_period(view, 1, {}, {}, true).stop,
            sched::RtaStop::kOverload);
  AdmissionService service{quiet_options()};
  const AdmissionResponse resp = service.admit(request_for(ts, 1));
  EXPECT_EQ(resp.status, ResponseStatus::kAnswered);
  EXPECT_EQ(resp.verdict, AdmissionVerdict::kReject);
  EXPECT_EQ(resp.tier, AnalysisTier::kRtaOnly);
  EXPECT_FALSE(resp.cross_checked);
  // The ceiling holds: an exact-tier repeat is a cache hit.
  EXPECT_TRUE(service.admit(request_for(ts, 2)).cache_hit);
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.cross_check_skips, 1u);
  EXPECT_EQ(m.cross_check_disagreements, 0u);
}

TEST(AdmissionService, UtilizationOneSetIsAnsweredPromptly) {
  // 28 tasks at U = 1.00 with D in [0.8, 1.0]*T: the uncapped analysis
  // (sched::analyze) runs each level-i busy period toward the
  // hyperperiod and takes 0.2-0.6 s on such a set; the deadline-capped
  // kernel stops at the first certain miss.
  RandomTaskSetSpec spec;
  spec.tasks = 28;
  spec.total_utilization = 1.0;
  const sched::TaskSet ts = testsupport::make_seeded_task_set(1, spec);
  // sched::analyze(ts).feasible, pinned: calling it here would cost the
  // time this test bounds.
  constexpr bool kAnalyzeFeasible = false;

  AdmissionService service{quiet_options()};
  const auto t0 = std::chrono::steady_clock::now();
  const AdmissionResponse resp = service.admit(request_for(ts, 1));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(resp.status, ResponseStatus::kAnswered);
  EXPECT_EQ(resp.tier, AnalysisTier::kExact);
  EXPECT_TRUE(resp.cross_checked);
  EXPECT_EQ(resp.verdict, kAnalyzeFeasible ? AdmissionVerdict::kAdmit
                                           : AdmissionVerdict::kReject);
  EXPECT_DOUBLE_EQ(resp.utilization, ts.utilization());
  EXPECT_EQ(service.metrics().cross_check_disagreements, 0u);
  // Microseconds of analysis plus an engine replay up to the first
  // certain miss: 200 ms is generous, also in a Debug ASan build, yet a
  // third of what sched::analyze alone takes on this set.
  EXPECT_LT(elapsed, std::chrono::milliseconds(200));
}

TEST(AdmissionService, SubmitAfterStopAnswersShutdownImmediately) {
  AdmissionService service{quiet_options()};
  service.stop();
  const AdmissionResponse resp =
      service.submit(request_for(table2_system(), 1)).get();
  EXPECT_EQ(resp.status, ResponseStatus::kShutdown);
  EXPECT_EQ(service.metrics().rejected_shutdown, 1u);
  service.stop();  // idempotent.
}

TEST(AdmissionService, StopWithoutStartStillAnswersEveryAcceptedRequest) {
  ServiceOptions opts = quiet_options();
  opts.autostart = false;
  AdmissionService service{opts};
  auto a = service.submit(request_for(table2_system(), 1));
  auto b = service.submit(request_for(table1_system(), 2));
  service.stop();  // no worker ever ran; the promises must still resolve.
  EXPECT_EQ(a.get().status, ResponseStatus::kShutdown);
  EXPECT_EQ(b.get().status, ResponseStatus::kShutdown);
}

TEST(AdmissionService, InjectedWorkerFaultsAreContained) {
  ServiceOptions opts = quiet_options();
  opts.faults.worker_throw_every = 2;  // every 2nd processed request.
  AdmissionService service{opts};
  std::uint64_t errors = 0;
  for (std::uint64_t i = 1; i <= 6; ++i) {
    const AdmissionResponse resp =
        service.admit(request_for(table2_system(), i));
    if (resp.status == ResponseStatus::kWorkerError) {
      ++errors;
      EXPECT_EQ(resp.detail, "injected worker fault");
    } else {
      EXPECT_EQ(resp.status, ResponseStatus::kAnswered);
    }
  }
  EXPECT_EQ(errors, 3u);  // requests 2, 4, 6 — and the worker survived.
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.worker_errors, 3u);
  EXPECT_EQ(m.faults_injected, 3u);
  EXPECT_EQ(m.answered, 3u);
}

TEST(AdmissionService, InjectedClockSkipExpiresQueuedDeadlines) {
  ServiceOptions opts = quiet_options();
  opts.faults.clock_skip_every = 1;
  opts.faults.clock_skip = Duration::s(10);
  AdmissionService service{opts};
  AdmissionRequest req = request_for(table2_system(), 1);
  req.time_budget = Duration::s(1);  // generous — but the clock jumps 10s.
  EXPECT_EQ(service.admit(std::move(req)).status,
            ResponseStatus::kShedDeadline);
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.clock_skips, 1u);
  EXPECT_EQ(m.shed_deadline, 1u);
}

TEST(AdmissionService, InjectedCacheCorruptionIsCaughtAndRecomputed) {
  ServiceOptions opts = quiet_options();
  opts.faults.corrupt_cache_every = 3;  // fires on the 3rd request.
  AdmissionService service{opts};
  const AdmissionResponse first =
      service.admit(request_for(table2_system(), 1));
  const AdmissionResponse second =
      service.admit(request_for(table2_system(), 2));
  EXPECT_TRUE(second.cache_hit);
  // Request 3: its cache entry is corrupted right before lookup. The
  // checksum must catch it and the verdict must be recomputed — and
  // still agree.
  const AdmissionResponse third =
      service.admit(request_for(table2_system(), 3));
  EXPECT_EQ(third.status, ResponseStatus::kAnswered);
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(third.verdict, first.verdict);
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.cache_corruption_detected, 1u);
  EXPECT_EQ(m.faults_injected, 1u);
}

TEST(AdmissionService, MetricsSummaryMentionsTheHeadlines) {
  AdmissionService service{quiet_options()};
  (void)service.admit(request_for(table2_system(), 1));
  const std::string s = service.metrics().summary();
  EXPECT_NE(s.find("answered"), std::string::npos);
  EXPECT_NE(s.find("ladder"), std::string::npos);
  EXPECT_NE(s.find("cache"), std::string::npos);
  EXPECT_NE(s.find("exact"), std::string::npos);
}

}  // namespace
}  // namespace rtft::serve
