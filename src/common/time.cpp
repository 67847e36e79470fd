#include "common/time.hpp"

#include "common/strings.hpp"

namespace rtft {
namespace {

std::string format_scaled(std::int64_t ns, std::int64_t scale,
                          const char* unit) {
  if (ns % scale == 0) return std::to_string(ns / scale) + unit;
  // Print the fraction with just enough digits, trimming zeros.
  std::string s =
      format_fixed(static_cast<double>(ns) / static_cast<double>(scale), 6);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s + unit;
}

}  // namespace

std::string to_string(Duration d) {
  const std::int64_t ns = d.count();
  const std::int64_t abs_ns = ns < 0 ? -ns : ns;
  if (abs_ns >= 1'000'000) return format_scaled(ns, 1'000'000, "ms");
  if (abs_ns >= 1'000) return format_scaled(ns, 1'000, "us");
  return format_scaled(ns, 1, "ns");
}

std::string to_string(Instant t) { return to_string(t.since_epoch()); }

}  // namespace rtft
