// Strong time types for the rtft library.
//
// All scheduling analysis and simulation is performed on signed 64-bit
// nanosecond counts, the same resolution the paper obtains through RDTSC.
// Two distinct types keep points-in-time and lengths-of-time from mixing:
//
//   Duration — a signed length of time (may be negative in intermediate
//              arithmetic, e.g. slack computations).
//   Instant  — a point on the virtual (or wall-clock) timeline, measured
//              from an arbitrary epoch 0.
//
// Both are trivially copyable value types with constexpr arithmetic.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <string>

#include "common/assert.hpp"

namespace rtft {

/// A signed length of time with nanosecond resolution.
class Duration {
 public:
  constexpr Duration() = default;

  // Named constructors; the unit is explicit at every call site.
  static constexpr Duration ns(std::int64_t v) { return Duration(v); }
  static constexpr Duration us(std::int64_t v) { return Duration(v * 1'000); }
  static constexpr Duration ms(std::int64_t v) {
    return Duration(v * 1'000'000);
  }
  static constexpr Duration s(std::int64_t v) {
    return Duration(v * 1'000'000'000);
  }

  static constexpr Duration zero() { return Duration(0); }
  /// Largest representable duration; used as an "unreachable" sentinel.
  static constexpr Duration max() {
    return Duration(std::numeric_limits<std::int64_t>::max());
  }

  /// Raw nanosecond count.
  [[nodiscard]] constexpr std::int64_t count() const { return ns_; }
  [[nodiscard]] constexpr double to_ms() const {
    return static_cast<double>(ns_) / 1e6;
  }

  [[nodiscard]] constexpr bool is_zero() const { return ns_ == 0; }
  [[nodiscard]] constexpr bool is_negative() const { return ns_ < 0; }
  [[nodiscard]] constexpr bool is_positive() const { return ns_ > 0; }

  friend constexpr Duration operator+(Duration a, Duration b) {
    return Duration(a.ns_ + b.ns_);
  }
  friend constexpr Duration operator-(Duration a, Duration b) {
    return Duration(a.ns_ - b.ns_);
  }
  constexpr Duration operator-() const { return Duration(-ns_); }
  friend constexpr Duration operator*(Duration d, std::int64_t k) {
    return Duration(d.ns_ * k);
  }
  friend constexpr Duration operator*(std::int64_t k, Duration d) {
    return d * k;
  }
  friend constexpr Duration operator/(Duration d, std::int64_t k) {
    return Duration(d.ns_ / k);
  }
  /// Truncating ratio of two durations.
  friend constexpr std::int64_t operator/(Duration a, Duration b) {
    return a.ns_ / b.ns_;
  }
  friend constexpr Duration operator%(Duration a, Duration b) {
    return Duration(a.ns_ % b.ns_);
  }
  constexpr Duration& operator+=(Duration o) {
    ns_ += o.ns_;
    return *this;
  }
  constexpr Duration& operator-=(Duration o) {
    ns_ -= o.ns_;
    return *this;
  }

  friend constexpr auto operator<=>(Duration, Duration) = default;

 private:
  constexpr explicit Duration(std::int64_t v) : ns_(v) {}
  std::int64_t ns_ = 0;
};

/// Smallest number of `step`s whose total covers `amount`
/// (ceil(amount/step)). Requires amount >= 0 and step > 0.
[[nodiscard]] constexpr std::int64_t ceil_div(Duration amount, Duration step) {
  RTFT_EXPECTS(step.is_positive(), "ceil_div step must be positive");
  RTFT_EXPECTS(!amount.is_negative(), "ceil_div amount must be non-negative");
  return (amount.count() + step.count() - 1) / step.count();
}

/// A point on the timeline, `count()` nanoseconds after the epoch.
class Instant {
 public:
  constexpr Instant() = default;
  static constexpr Instant epoch() { return Instant(); }
  static constexpr Instant from_ns(std::int64_t v) { return Instant(v); }
  /// Unreachable sentinel (used for "never scheduled" events).
  static constexpr Instant never() {
    return Instant(std::numeric_limits<std::int64_t>::max());
  }

  [[nodiscard]] constexpr std::int64_t count() const { return ns_; }
  [[nodiscard]] constexpr Duration since_epoch() const {
    return Duration::ns(ns_);
  }
  [[nodiscard]] constexpr double to_ms() const {
    return static_cast<double>(ns_) / 1e6;
  }

  friend constexpr Instant operator+(Instant t, Duration d) {
    return Instant(t.ns_ + d.count());
  }
  friend constexpr Instant operator+(Duration d, Instant t) { return t + d; }
  friend constexpr Instant operator-(Instant t, Duration d) {
    return Instant(t.ns_ - d.count());
  }
  friend constexpr Duration operator-(Instant a, Instant b) {
    return Duration::ns(a.ns_ - b.ns_);
  }
  friend constexpr auto operator<=>(Instant, Instant) = default;

 private:
  constexpr explicit Instant(std::int64_t v) : ns_(v) {}
  std::int64_t ns_ = 0;
};

namespace literals {
constexpr Duration operator""_ns(unsigned long long v) {
  return Duration::ns(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_us(unsigned long long v) {
  return Duration::us(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_ms(unsigned long long v) {
  return Duration::ms(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_s(unsigned long long v) {
  return Duration::s(static_cast<std::int64_t>(v));
}
}  // namespace literals

/// Human-readable rendering, millisecond-centric like the paper
/// ("29ms", "1.5ms", "87.003ms"); falls back to µs/ns for tiny values.
[[nodiscard]] std::string to_string(Duration d);
[[nodiscard]] std::string to_string(Instant t);

}  // namespace rtft
