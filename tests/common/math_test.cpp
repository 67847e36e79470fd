#include "common/math.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>

namespace rtft {
namespace {

using namespace rtft::literals;

TEST(CheckedMul, DetectsOverflow) {
  EXPECT_EQ(checked_mul(6, 7), 42);
  EXPECT_EQ(checked_mul(-6, 7), -42);
  EXPECT_FALSE(
      checked_mul(std::numeric_limits<std::int64_t>::max(), 2).has_value());
}

TEST(CheckedAdd, DetectsOverflow) {
  EXPECT_EQ(checked_add(40, 2), 42);
  EXPECT_FALSE(
      checked_add(std::numeric_limits<std::int64_t>::max(), 1).has_value());
}

TEST(CompareLoadToOne, ExactBoundary) {
  // 3/6 + 2/4 = 1 exactly.
  const std::array<Duration, 2> costs{3_ms, 2_ms};
  const std::array<Duration, 2> periods{6_ms, 4_ms};
  EXPECT_EQ(compare_load_to_one(costs, periods), 0);
}

TEST(CompareLoadToOne, BelowAndAbove) {
  {
    const std::array<Duration, 2> costs{1_ms, 1_ms};
    const std::array<Duration, 2> periods{6_ms, 4_ms};
    EXPECT_EQ(compare_load_to_one(costs, periods), -1);
  }
  {
    const std::array<Duration, 2> costs{4_ms, 2_ms};
    const std::array<Duration, 2> periods{6_ms, 4_ms};
    EXPECT_EQ(compare_load_to_one(costs, periods), 1);
  }
}

TEST(CompareLoadToOne, ImmuneToFloatRounding) {
  // 1/3 + 1/3 + 1/3 = 1 exactly; floating point would say 0.999...
  const std::array<Duration, 3> costs{1_ns, 1_ns, 1_ns};
  const std::array<Duration, 3> periods{3_ns, 3_ns, 3_ns};
  EXPECT_EQ(compare_load_to_one(costs, periods), 0);
}

TEST(CompareLoadToOne, OneNanosecondOverOne) {
  const std::array<Duration, 2> costs{Duration::ns(500'000'001), 500_ms};
  const std::array<Duration, 2> periods{Duration::s(1), Duration::s(1)};
  EXPECT_EQ(compare_load_to_one(costs, periods), 1);
}

}  // namespace
}  // namespace rtft
