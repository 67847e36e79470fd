#include "common/random.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/assert.hpp"

namespace rtft {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, DoubleIsInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextInStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextInDegenerateRange) {
  Rng rng(9);
  EXPECT_EQ(rng.next_in(17, 17), 17);
}

TEST(Rng, NextInRejectsInvertedRange) {
  Rng rng(9);
  EXPECT_THROW((void)rng.next_in(2, 1), ContractViolation);
}

TEST(UUniFast, SumsToTotalUtilization) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const auto u = uunifast(rng, 8, 0.75);
    ASSERT_EQ(u.size(), 8u);
    const double sum = std::accumulate(u.begin(), u.end(), 0.0);
    EXPECT_NEAR(sum, 0.75, 1e-12);
    for (double ui : u) EXPECT_GT(ui, 0.0);
  }
}

TEST(UUniFast, SingleTaskGetsEverything) {
  Rng rng(5);
  const auto u = uunifast(rng, 1, 0.4);
  ASSERT_EQ(u.size(), 1u);
  EXPECT_DOUBLE_EQ(u[0], 0.4);
}

TEST(RandomTaskSet, RespectsSpec) {
  Rng rng(21);
  RandomTaskSetSpec spec;
  spec.tasks = 12;
  spec.total_utilization = 0.6;
  spec.min_period = Duration::ms(5);
  spec.max_period = Duration::ms(500);
  spec.deadline_min_factor = 0.5;
  spec.deadline_max_factor = 1.0;
  const auto set = random_task_set(rng, spec);
  ASSERT_EQ(set.size(), 12u);
  for (const RandomTask& t : set) {
    EXPECT_GE(t.period, spec.min_period);
    EXPECT_LE(t.period, spec.max_period);
    EXPECT_GT(t.cost, Duration::zero());
    EXPECT_GE(t.deadline, t.cost);
    EXPECT_LE(t.deadline, t.period);
  }
}

TEST(RandomTaskSet, UtilizationApproximatelyMatches) {
  Rng rng(22);
  RandomTaskSetSpec spec;
  spec.tasks = 10;
  spec.total_utilization = 0.5;
  const auto set = random_task_set(rng, spec);
  double u = 0.0;
  for (const RandomTask& t : set) {
    u += static_cast<double>(t.cost.count()) /
         static_cast<double>(t.period.count());
  }
  // Rounding to >=1us per task may push utilization slightly around the
  // target, but it must stay close.
  EXPECT_NEAR(u, 0.5, 0.05);
}

}  // namespace
}  // namespace rtft
