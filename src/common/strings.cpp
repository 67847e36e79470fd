#include "common/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <clocale>
#include <cstdio>

#include "common/assert.hpp"

namespace rtft {
namespace {

/// Appends C-library output with its locale decimal point made '.'.
void append_dot_decimal(std::string& out, std::string_view formatted) {
  const char* dp = std::localeconv()->decimal_point;
  if (dp == nullptr || (dp[0] == '.' && dp[1] == '\0')) {
    out += formatted;
  } else {
    out += normalize_decimal_point(formatted, dp);
  }
}

}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string format_fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  std::string out;
  append_dot_decimal(out, buf);
  return out;
}

void append_double(std::string& out, double value) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", value);
  RTFT_ASSERT(n > 0 && static_cast<std::size_t>(n) < sizeof(buf),
              "%.17g exceeds the number buffer");
  append_dot_decimal(out, std::string_view(buf, static_cast<std::size_t>(n)));
}

std::string normalize_decimal_point(std::string_view formatted,
                                    std::string_view decimal_point) {
  const std::size_t pos = decimal_point.empty() || decimal_point == "."
                              ? std::string_view::npos
                              : formatted.find(decimal_point);
  if (pos == std::string_view::npos) return std::string(formatted);
  std::string out;
  out.reserve(formatted.size());
  out.append(formatted.substr(0, pos));
  out += '.';
  out.append(formatted.substr(pos + decimal_point.size()));
  return out;
}

std::string pad_left(std::string_view s, std::size_t width) {
  std::string out;
  if (s.size() < width) out.assign(width - s.size(), ' ');
  out.append(s);
  return out;
}

std::string pad_right(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::string format_table(const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths;
  for (const auto& row : rows) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += "  ";
      out += c == 0 ? pad_right(row[c], widths[c])
                    : pad_left(row[c], widths[c]);
    }
    out += '\n';
  }
  return out;
}

bool parse_int64(std::string_view s, std::int64_t& out) {
  s = trim(s);
  if (s.empty()) return false;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

bool parse_double(std::string_view s, double& out) {
  s = trim(s);
  if (s.empty()) return false;
  // std::from_chars for double is available in libstdc++ 11+.
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

}  // namespace rtft
