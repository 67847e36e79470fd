// Multi-threaded soak of the admission service under injected faults and
// a sustained burst several times the queue capacity. The assertions are
// the service's robustness contract:
//
//   * the queue bound holds at all times (max_depth <= capacity);
//   * every accepted request is answered — no deadlock, no lost promise
//     (a violation hangs a future.get() and trips the ctest timeout);
//   * every answer carries a tier tag, and exact/rta-tier answers agree
//     with the one-shot FeasibilityAnalysis oracle;
//   * bound-tier answers are honest: kAdmit only for oracle-feasible
//     sets, kReject only for oracle-infeasible ones;
//   * injected worker throws, clock skips and cache corruption are all
//     absorbed: the counters prove they fired, the service keeps serving,
//     and the books still balance.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "sched/feasibility.hpp"
#include "serve/service.hpp"
#include "support/random_sets.hpp"

namespace rtft::serve {
namespace {

constexpr std::size_t kDistinctSets = 40;
constexpr std::size_t kProducers = 4;
constexpr std::size_t kPerProducer = 400;

struct Population {
  std::vector<sched::TaskSet> sets;
  std::vector<bool> feasible;  ///< one-shot oracle, per set.
};

Population make_population() {
  Population pop;
  for (std::size_t i = 0; i < kDistinctSets; ++i) {
    RandomTaskSetSpec spec;
    spec.tasks = 2 + i % 4;
    // Sweep utilization through clearly-feasible up to overloaded so the
    // population mixes admits and rejects.
    spec.total_utilization = 0.3 + 0.03 * static_cast<double>(i);
    spec.min_period = Duration::ms(10);
    spec.max_period = Duration::ms(100);
    pop.sets.push_back(testsupport::make_seeded_task_set(1000 + i, spec));
    pop.feasible.push_back(sched::is_feasible(pop.sets.back()));
  }
  return pop;
}

TEST(AdmissionServiceSoak, SurvivesBurstsAndInjectedFaults) {
  const Population pop = make_population();

  ServiceOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 32;
  opts.cache_capacity = 64;  // comfortably holds the 40-set population.
  opts.autostart = false;
  // Fault periods below the queue capacity: the preload alone already
  // guarantees every fault class fires at least once, no matter how much
  // of the burst the backpressure turns away.
  opts.faults.worker_throw_every = 29;
  opts.faults.clock_skip_every = 31;
  opts.faults.clock_skip = Duration::ms(5);
  opts.faults.corrupt_cache_every = 13;
  AdmissionService service{opts};

  // Pre-fill to capacity before any worker runs: the very first pops see
  // fill 1.0, so the ladder provably visits its floor during the soak.
  std::vector<std::future<AdmissionResponse>> preload;
  for (std::size_t i = 0; i < opts.queue_capacity; ++i) {
    AdmissionRequest req;
    req.id = 1'000'000 + i;
    req.tasks = pop.sets[i % kDistinctSets].tasks();
    auto f = service.submit(std::move(req));
    preload.push_back(std::move(f));
  }
  service.start();

  // The burst: 4 producers submitting flat out, 1600 requests against a
  // 32-deep queue — 50x the queue capacity in total, with poisoned
  // requests and tight deadlines mixed in.
  std::vector<std::vector<std::future<AdmissionResponse>>> futures(kProducers);
  std::vector<std::vector<std::size_t>> set_of(kProducers);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::size_t n = p * kPerProducer + i;
        AdmissionRequest req;
        req.id = n;
        if (n % 17 == 0) {
          // Poisoned: zero period must surface as kInvalidRequest.
          req.tasks = pop.sets[n % kDistinctSets].tasks();
          req.tasks[0].period = Duration::zero();
          set_of[p].push_back(kDistinctSets);  // sentinel: no oracle.
        } else {
          req.tasks = pop.sets[n % kDistinctSets].tasks();
          set_of[p].push_back(n % kDistinctSets);
        }
        if (n % 5 == 0) req.time_budget = Duration::ms(50);
        futures[p].push_back(service.submit(std::move(req)));
      }
    });
  }
  for (std::thread& t : producers) t.join();

  // Every future must resolve — the "never deadlocks" clause. A hang
  // here is caught by the ctest timeout.
  std::uint64_t answered = 0, rejected = 0, shed = 0, invalid = 0, errors = 0;
  auto check = [&](const AdmissionResponse& r, std::size_t set_index) {
    switch (r.status) {
      case ResponseStatus::kAnswered: {
        ++answered;
        ASSERT_LE(static_cast<int>(r.tier), 2);
        if (set_index >= kDistinctSets) break;  // poisoned: unreachable.
        const bool oracle = pop.feasible[set_index];
        if (r.tier == AnalysisTier::kExact || r.tier == AnalysisTier::kRtaOnly) {
          // Exact tiers must reproduce the one-shot answer bit for bit.
          ASSERT_EQ(r.verdict, oracle ? AdmissionVerdict::kAdmit
                                      : AdmissionVerdict::kReject)
              << "set " << set_index << " tier " << to_cstring(r.tier);
        } else {
          // The bound tier may be inconclusive but must never lie.
          if (r.verdict == AdmissionVerdict::kAdmit) {
            ASSERT_TRUE(oracle);
          }
          if (r.verdict == AdmissionVerdict::kReject) {
            ASSERT_FALSE(oracle);
          }
        }
        break;
      }
      case ResponseStatus::kRejectedFull:
        ++rejected;
        ASSERT_TRUE(r.retry_after.is_positive());
        break;
      case ResponseStatus::kShedDeadline:
        ++shed;
        break;
      case ResponseStatus::kInvalidRequest:
        ++invalid;
        break;
      case ResponseStatus::kWorkerError:
        ++errors;
        break;
      case ResponseStatus::kShutdown:
        FAIL() << "no request was submitted after stop()";
    }
  };
  for (std::size_t i = 0; i < preload.size(); ++i) {
    check(preload[i].get(), i % kDistinctSets);
  }
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < futures[p].size(); ++i) {
      check(futures[p][i].get(), set_of[p][i]);
    }
  }

  // The burst has drained, so the ladder is back at kExact. One request
  // per set, one at a time: each set the burst answered only below the
  // exact tier is now replayed and cross-checked, so the disagreement
  // count below covers the whole population, not just the sets the
  // burst's thread timing happened to serve exactly.
  for (std::size_t i = 0; i < kDistinctSets; ++i) {
    AdmissionRequest req;
    req.id = 3'000'000 + i;
    req.tasks = pop.sets[i].tasks();
    check(service.admit(std::move(req)), i);
  }

  // Backpressure may turn so much of the burst away that no set gets
  // answered twice. Resubmit one set one request at a time: four
  // consecutive ordinals hold at most one injected throw (every 29) and
  // one cache corruption (every 13), and besides those only the first
  // to reach the cache can miss, so at least one of them is a hit.
  constexpr std::size_t kResubmits = 4;
  for (std::size_t i = 0; i < kResubmits; ++i) {
    AdmissionRequest req;
    req.id = 2'000'000 + i;
    req.tasks = pop.sets[1].tasks();
    check(service.admit(std::move(req)), 1);
  }
  service.stop();

  const ServiceMetrics m = service.metrics();
  const std::uint64_t total = opts.queue_capacity +
                              kProducers * kPerProducer + kDistinctSets +
                              kResubmits;

  // The books balance: every submission has exactly one recorded fate,
  // and what we observed in responses matches the service's own count.
  EXPECT_EQ(m.submitted, total);
  EXPECT_EQ(m.submitted, m.accepted + m.rejected_full + m.rejected_shutdown);
  EXPECT_EQ(m.accepted,
            m.answered + m.shed_deadline + m.invalid + m.worker_errors);
  EXPECT_EQ(m.answered, answered);
  EXPECT_EQ(m.rejected_full, rejected);
  EXPECT_EQ(m.shed_deadline, shed);
  EXPECT_EQ(m.invalid, invalid);
  EXPECT_EQ(m.worker_errors, errors);

  // The queue bound held throughout the burst.
  EXPECT_LE(m.max_queue_depth, opts.queue_capacity);

  // The ladder provably visited its floor (preload filled the queue) and
  // recovered by the time the queue drained.
  EXPECT_GE(m.degrade_steps, 1u);
  EXPECT_GE(m.recover_steps, 1u);
  EXPECT_GT(m.answered_by_tier[2], 0u);
  EXPECT_EQ(m.current_tier, AnalysisTier::kExact);

  // Faults fired and were absorbed.
  EXPECT_GT(m.faults_injected, 0u);
  EXPECT_GT(m.worker_errors, 0u);
  EXPECT_GT(m.clock_skips, 0u);

  // The engine cross-check never contradicted the analysis.
  EXPECT_EQ(m.cross_check_disagreements, 0u);

  // The cache did real work (the resubmissions guarantee a hit).
  EXPECT_GT(m.cache_hits, 0u);
}

}  // namespace
}  // namespace rtft::serve
