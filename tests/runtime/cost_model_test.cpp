#include "runtime/cost_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/assert.hpp"

namespace rtft::rt {
namespace {

using namespace rtft::literals;

TEST(CostSpec, DefaultAndEmptyFunctionAreNominal) {
  const CostSpec def;
  EXPECT_TRUE(def.is_nominal());
  EXPECT_EQ(def.resolve(3_ms, 0), 3_ms);
  EXPECT_EQ(def.resolve(3_ms, 1000), 3_ms);

  // An empty std::function means "nominal", exactly as the engine's old
  // CostModel contract had it.
  const CostSpec from_empty = CostModel{};
  EXPECT_TRUE(from_empty.is_nominal());
  EXPECT_EQ(CostSpec::nominal().resolve(7_us, 3), 7_us);
}

TEST(CostSpec, FixedOverrunHitsExactlyOneJob) {
  const CostSpec s = CostSpec::fixed_overrun(2, 500_us);
  EXPECT_FALSE(s.is_nominal());
  EXPECT_EQ(s.resolve(1_ms, 0), 1_ms);
  EXPECT_EQ(s.resolve(1_ms, 1), 1_ms);
  EXPECT_EQ(s.resolve(1_ms, 2), 1500_us);
  EXPECT_EQ(s.resolve(1_ms, 3), 1_ms);
}

TEST(CostSpec, FixedOverrunFloorsNegativeDeltasAtOneNanosecond) {
  // The fault model's semantics: a job always does some work.
  const CostSpec s = CostSpec::fixed_overrun(0, -(2_ms));
  EXPECT_EQ(s.resolve(1_ms, 0), 1_ns);
  EXPECT_EQ(s.resolve(1_ms, 1), 1_ms);
  EXPECT_EQ(CostSpec::fixed_overrun(0, -(1_ms) + 1_ns).resolve(1_ms, 0), 1_ns);
}

TEST(CostSpec, CallablesConvertToCustomAndKeepTheirContract) {
  const CostSpec s = [](std::int64_t job) {
    return job == 0 ? 5_ms : 2_ms;
  };
  EXPECT_FALSE(s.is_nominal());
  EXPECT_EQ(s.resolve(1_ms, 0), 5_ms);   // nominal is ignored by kCustom
  EXPECT_EQ(s.resolve(1_ms, 7), 2_ms);

  const CostSpec bad = [](std::int64_t) { return 0_ns; };
  EXPECT_THROW((void)bad.resolve(1_ms, 0), ContractViolation);
}

}  // namespace
}  // namespace rtft::rt
