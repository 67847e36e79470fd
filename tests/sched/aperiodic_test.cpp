#include "sched/aperiodic.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "common/random.hpp"

namespace rtft::sched {
namespace {

using namespace rtft::literals;

TEST(PollingServerBound, OnePollPerBudgetChunk) {
  // k = ceil(cost/budget) polls, each one period apart, then the server's
  // own completion latency.
  EXPECT_EQ(polling_server_response_bound(10_ms, 10_ms, 50_ms, 12_ms),
            62_ms);
  EXPECT_EQ(polling_server_response_bound(11_ms, 10_ms, 50_ms, 12_ms),
            112_ms);
  EXPECT_EQ(polling_server_response_bound(30_ms, 10_ms, 50_ms, 12_ms),
            162_ms);
}

TEST(PollingServerBound, MonotoneInCost) {
  Duration prev;
  for (std::int64_t c = 1; c <= 50; ++c) {
    const Duration bound = polling_server_response_bound(
        Duration::ms(c), 10_ms, 50_ms, 10_ms);
    EXPECT_GE(bound, prev);
    prev = bound;
  }
}

TEST(PollingServerBound, RejectsInvalidArguments) {
  EXPECT_THROW((void)polling_server_response_bound(Duration::zero(), 10_ms,
                                                   50_ms, 10_ms),
               ContractViolation);
  EXPECT_THROW((void)polling_server_response_bound(1_ms, Duration::zero(),
                                                   50_ms, 10_ms),
               ContractViolation);
  EXPECT_THROW((void)polling_server_response_bound(1_ms, 10_ms,
                                                   Duration::zero(), 10_ms),
               ContractViolation);
}

TEST(MaxAperiodicCost, ZeroWhenDeadlineTooShort) {
  EXPECT_EQ(max_aperiodic_cost_within(50_ms, 10_ms, 50_ms, 10_ms),
            Duration::zero());
  EXPECT_EQ(max_aperiodic_cost_within(60_ms, 10_ms, 50_ms, 10_ms),
            Duration::zero());
}

TEST(MaxAperiodicCost, ExactlyOnePollFits) {
  // D = 61: one poll (50) + wcrt (10) fits with 1 ms to spare.
  EXPECT_EQ(max_aperiodic_cost_within(61_ms, 10_ms, 50_ms, 10_ms), 10_ms);
}

class AperiodicInverseProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AperiodicInverseProperty, BoundOfMaxCostFitsAndSupremumHolds) {
  Rng rng(GetParam());
  const Duration budget = Duration::ms(rng.next_in(1, 20));
  const Duration period = budget * rng.next_in(2, 10);
  const Duration wcrt = Duration::ms(rng.next_in(0, budget / Duration::ms(1)));
  const Duration deadline = Duration::ms(rng.next_in(1, 2000));

  const Duration max_cost =
      max_aperiodic_cost_within(deadline, budget, period, wcrt);
  if (max_cost.is_zero()) {
    // Even a minimal job must bust the deadline.
    EXPECT_GT(polling_server_response_bound(Duration::ns(1), budget, period,
                                            wcrt),
              deadline);
    return;
  }
  EXPECT_LE(
      polling_server_response_bound(max_cost, budget, period, wcrt),
      deadline);
  EXPECT_GT(polling_server_response_bound(max_cost + Duration::ns(1), budget,
                                          period, wcrt),
            deadline);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AperiodicInverseProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace rtft::sched
