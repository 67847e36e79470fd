// Small string utilities shared by the config parser, chart renderers and
// report formatting. Nothing here allocates during simulation runs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rtft {

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on a separator character; empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char sep);

// Number rendering. The C library formats floats with the global
// LC_NUMERIC locale; both writers below force the decimal separator to
// '.', so a comma locale cannot corrupt a CSV row, a JSON document, an
// SVG coordinate or a report line.

/// Fixed-point decimal rendering with `digits` places.
[[nodiscard]] std::string format_fixed(double value, int digits);

/// Appends `value` as %.17g, the shortest form that round-trips
/// bit-exactly through parse_double.
void append_double(std::string& out, double value);

/// The locale fix-up both writers apply: replaces the first occurrence
/// of `decimal_point` (as written by the C library, possibly
/// multi-byte) in `formatted` with '.'.
[[nodiscard]] std::string normalize_decimal_point(
    std::string_view formatted, std::string_view decimal_point);

/// Left/right padding to a column width (spaces; no truncation).
[[nodiscard]] std::string pad_left(std::string_view s, std::size_t width);
[[nodiscard]] std::string pad_right(std::string_view s, std::size_t width);

/// Renders rows as an aligned text table, one '\n'-terminated line per
/// row: each column padded to its widest cell, the first left-aligned and
/// the rest right-aligned, columns two spaces apart.
[[nodiscard]] std::string format_table(
    const std::vector<std::vector<std::string>>& rows);

/// True if `s` parses completely as a signed decimal integer.
[[nodiscard]] bool parse_int64(std::string_view s, std::int64_t& out);
/// True if `s` parses completely as a floating-point number.
[[nodiscard]] bool parse_double(std::string_view s, double& out);

}  // namespace rtft
