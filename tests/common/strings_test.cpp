#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/numeric_locale.hpp"

namespace rtft {
namespace {

using testsupport::ScopedNumericLocale;

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("\tabc\n"), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Split, PreservesEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, SingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Split, TrailingSeparator) {
  const auto parts = split("a,b,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "");
}

TEST(FormatFixed, RendersRequestedDigits) {
  EXPECT_EQ(format_fixed(1.0, 2), "1.00");
  EXPECT_EQ(format_fixed(0.285, 3), "0.285");
  EXPECT_EQ(format_fixed(-2.5, 1), "-2.5");
}

TEST(FormatFixed, KeepsADotUnderACommaDecimalLocale) {
  ScopedNumericLocale locale;
  if (!locale.force_comma_decimal()) {
    GTEST_SKIP() << "no comma-decimal locale installed on this host";
  }
  EXPECT_EQ(format_fixed(12.5, 2), "12.50");
  EXPECT_EQ(format_fixed(-0.285, 3), "-0.285");
  EXPECT_EQ(format_fixed(7.0, 0), "7");
}

TEST(AppendDouble, RoundTripsUnderACommaDecimalLocale) {
  ScopedNumericLocale locale;
  if (!locale.force_comma_decimal()) {
    GTEST_SKIP() << "no comma-decimal locale installed on this host";
  }
  for (const double v : {0.5, -3.25, 1e-7, 123456.789, 2.2250738585072014e-308,
                         9007199254740993.0}) {
    std::string s;
    append_double(s, v);
    EXPECT_EQ(s.find(','), std::string::npos) << s;
    double back = 0.0;
    EXPECT_TRUE(parse_double(s, back)) << s;
    EXPECT_EQ(back, v) << s;  // %.17g round-trips exactly
  }
}

TEST(NormalizeDecimalPoint, HandlesMultiByteSeparators) {
  EXPECT_EQ(normalize_decimal_point("3,14", ","), "3.14");
  EXPECT_EQ(normalize_decimal_point("3.14", "."), "3.14");
  EXPECT_EQ(normalize_decimal_point("-1,5e-07", ","), "-1.5e-07");
  EXPECT_EQ(normalize_decimal_point("42", ","), "42");
  EXPECT_EQ(normalize_decimal_point("3\xC2\xB7"
                                    "14",
                                    "\xC2\xB7"),
            "3.14");  // U+00B7 middle dot (e.g. some ca_ES variants)
  EXPECT_EQ(normalize_decimal_point("", ","), "");
}

TEST(Pad, LeftAndRight) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");  // no truncation
  EXPECT_EQ(pad_right("abcd", 2), "abcd");
}

TEST(ParseInt64, AcceptsWholeStringOnly) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_int64("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int64(" -7 ", v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(parse_int64("42x", v));
  EXPECT_FALSE(parse_int64("", v));
  EXPECT_FALSE(parse_int64("4 2", v));
}

TEST(ParseDouble, AcceptsWholeStringOnly) {
  double v = 0;
  EXPECT_TRUE(parse_double("0.5", v));
  EXPECT_DOUBLE_EQ(v, 0.5);
  EXPECT_TRUE(parse_double(" 2e3 ", v));
  EXPECT_DOUBLE_EQ(v, 2000.0);
  EXPECT_FALSE(parse_double("1.2.3", v));
  EXPECT_FALSE(parse_double("", v));
}

}  // namespace
}  // namespace rtft
