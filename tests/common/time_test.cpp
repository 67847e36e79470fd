#include "common/time.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "support/numeric_locale.hpp"

namespace rtft {
namespace {

using namespace rtft::literals;

TEST(Duration, NamedConstructorsAgreeOnScale) {
  EXPECT_EQ(Duration::us(1).count(), 1'000);
  EXPECT_EQ(Duration::ms(1).count(), 1'000'000);
  EXPECT_EQ(Duration::s(1).count(), 1'000'000'000);
  EXPECT_EQ(Duration::ms(29).count(), 29'000'000);
}

TEST(Duration, LiteralsMatchNamedConstructors) {
  EXPECT_EQ(5_ns, Duration::ns(5));
  EXPECT_EQ(5_us, Duration::us(5));
  EXPECT_EQ(5_ms, Duration::ms(5));
  EXPECT_EQ(5_s, Duration::s(5));
}

TEST(Duration, ArithmeticIsExact) {
  EXPECT_EQ(3_ms + 4_ms, 7_ms);
  EXPECT_EQ(3_ms - 4_ms, Duration::ms(-1));
  EXPECT_EQ(-(3_ms), Duration::ms(-3));
  EXPECT_EQ(3_ms * 4, 12_ms);
  EXPECT_EQ(4 * 3_ms, 12_ms);
  EXPECT_EQ(12_ms / 4, 3_ms);
  EXPECT_EQ(13_ms / (4_ms), 3);  // truncating ratio
  EXPECT_EQ(13_ms % 4_ms, 1_ms);
}

TEST(Duration, CompoundAssignment) {
  Duration d = 10_ms;
  d += 5_ms;
  EXPECT_EQ(d, 15_ms);
  d -= 20_ms;
  EXPECT_EQ(d, Duration::ms(-5));
}

TEST(Duration, ComparisonIsTotalOrder) {
  EXPECT_LT(1_ms, 2_ms);
  EXPECT_LE(2_ms, 2_ms);
  EXPECT_GT(3_ms, 2_ms);
  EXPECT_EQ(Duration::zero(), 0_ns);
}

TEST(Duration, Predicates) {
  EXPECT_TRUE(Duration::zero().is_zero());
  EXPECT_TRUE((1_ns).is_positive());
  EXPECT_TRUE((Duration::zero() - 1_ns).is_negative());
  EXPECT_FALSE((1_ns).is_negative());
}

TEST(Duration, ConversionHelpers) {
  EXPECT_DOUBLE_EQ((1500_us).to_ms(), 1.5);
}

TEST(CeilDiv, RoundsUpwardExactly) {
  EXPECT_EQ(ceil_div(0_ms, 10_ms), 0);
  EXPECT_EQ(ceil_div(1_ns, 10_ms), 1);
  EXPECT_EQ(ceil_div(10_ms, 10_ms), 1);
  EXPECT_EQ(ceil_div(Duration::ms(10) + 1_ns, 10_ms), 2);
  EXPECT_EQ(ceil_div(87_ms, 200_ms), 1);
}

TEST(CeilDiv, RejectsInvalidArguments) {
  EXPECT_THROW((void)ceil_div(1_ms, Duration::zero()), ContractViolation);
  EXPECT_THROW((void)ceil_div(Duration::ms(-1), 1_ms), ContractViolation);
}

TEST(Instant, EpochAndOffsets) {
  const Instant t0 = Instant::epoch();
  EXPECT_EQ(t0.count(), 0);
  const Instant t1 = t0 + 29_ms;
  EXPECT_EQ(t1.since_epoch(), 29_ms);
  EXPECT_EQ(t1 - t0, 29_ms);
  EXPECT_EQ(t1 - 29_ms, t0);
  EXPECT_LT(t0, t1);
}

TEST(Instant, NeverIsBeyondEverything) {
  EXPECT_GT(Instant::never(), Instant::epoch() + Duration::s(1'000'000));
}

TEST(TimeToString, MillisecondCentricRendering) {
  EXPECT_EQ(to_string(29_ms), "29ms");
  EXPECT_EQ(to_string(1500_us), "1.5ms");
  EXPECT_EQ(to_string(250_us), "250us");
  EXPECT_EQ(to_string(17_ns), "17ns");
  EXPECT_EQ(to_string(Duration::zero()), "0ns");
  EXPECT_EQ(to_string(Duration::ms(-5)), "-5ms");
  EXPECT_EQ(to_string(Instant::epoch() + 1020_ms), "1020ms");
}

TEST(TimeToString, KeepsADotUnderACommaDecimalLocale) {
  testsupport::ScopedNumericLocale locale;
  if (!locale.force_comma_decimal()) {
    GTEST_SKIP() << "no comma-decimal locale installed on this host";
  }
  EXPECT_EQ(to_string(1500_us), "1.5ms");
  EXPECT_EQ(to_string(Duration::ns(-2250)), "-2.25us");
  EXPECT_EQ(to_string(Instant::epoch() + Duration::ns(1'000'001)),
            "1.000001ms");
}

}  // namespace
}  // namespace rtft
