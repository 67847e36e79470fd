// Overflow-aware integer helpers used by the scheduling analysis.
//
// Window and release dates must not wrap int64 nanoseconds, and
// utilization comparisons must not suffer floating-point rounding (a task
// set with U exactly 1 sits on the feasibility boundary). Both concerns
// are handled here with checked/128-bit arithmetic.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/assert.hpp"
#include "common/time.hpp"

namespace rtft {

/// a*b, or nullopt on int64 overflow.
[[nodiscard]] constexpr std::optional<std::int64_t> checked_mul(
    std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) return std::nullopt;
  return out;
}

/// a+b, or nullopt on int64 overflow.
[[nodiscard]] constexpr std::optional<std::int64_t> checked_add(
    std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) return std::nullopt;
  return out;
}

namespace detail {
/// 128-bit integer via the GCC/Clang extension; __extension__ silences
/// -Wpedantic, and the arithmetic below only needs this one alias.
__extension__ using Int128 = __int128;

[[nodiscard]] constexpr Int128 gcd128(Int128 a, Int128 b) {
  if (a < 0) a = -a;
  while (b != 0) {
    const Int128 r = a % b;
    a = b;
    b = r;
  }
  return a;
}
}  // namespace detail

/// Comparison of a utilization sum against 1.
///
/// Returns +1 if sum(costs[i]/periods[i]) > 1, 0 if == 1, -1 if < 1.
/// Accumulates the exact fraction in 128-bit arithmetic (gcd-reduced at
/// every step); if the common denominator still overflows — which needs
/// many near-coprime nanosecond-scale periods — it falls back to a long
/// double sum with a tight boundary band, so a set can only be classified
/// "exactly 1" spuriously if its utilization is within 1e-15 of 1.
[[nodiscard]] inline int compare_load_to_one(std::span<const Duration> costs,
                                             std::span<const Duration> periods) {
  RTFT_EXPECTS(costs.size() == periods.size(),
               "costs/periods size mismatch");
  detail::Int128 num = 0;
  detail::Int128 den = 1;
  bool exact = true;
  for (std::size_t i = 0; i < costs.size() && exact; ++i) {
    RTFT_EXPECTS(periods[i].is_positive(), "periods must be positive");
    RTFT_EXPECTS(!costs[i].is_negative(), "costs must be non-negative");
    detail::Int128 c = costs[i].count();
    detail::Int128 t = periods[i].count();
    const detail::Int128 g0 = detail::gcd128(c, t);
    if (g0 > 1) {
      c /= g0;
      t /= g0;
    }
    // num/den += c/t, overflow-checked.
    detail::Int128 nt = 0;
    detail::Int128 cd = 0;
    detail::Int128 sum = 0;
    detail::Int128 nd = 0;
    if (__builtin_mul_overflow(num, t, &nt) ||
        __builtin_mul_overflow(c, den, &cd) ||
        __builtin_add_overflow(nt, cd, &sum) ||
        __builtin_mul_overflow(den, t, &nd)) {
      exact = false;
      break;
    }
    num = sum;
    den = nd;
    const detail::Int128 g = detail::gcd128(num, den);
    if (g > 1) {
      num /= g;
      den /= g;
    }
  }
  if (exact) {
    if (num > den) return 1;
    if (num == den) return 0;
    return -1;
  }
  long double approx = 0.0L;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    approx += static_cast<long double>(costs[i].count()) /
              static_cast<long double>(periods[i].count());
  }
  if (approx > 1.0L + 1e-15L) return 1;
  if (approx < 1.0L - 1e-15L) return -1;
  return 0;
}

}  // namespace rtft
