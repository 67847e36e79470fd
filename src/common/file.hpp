// Whole-file reads and writes. A failure is an I/O error, not a caller
// bug, so both throw std::runtime_error naming the path and the OS
// error, never ContractViolation.
#pragma once

#include <string>
#include <string_view>

namespace rtft {

/// The bytes of the file at `path`.
[[nodiscard]] std::string read_file(const std::string& path);

/// Replaces the file at `path` with `content`. The write counts only
/// once the file is closed: a buffered write that fails on close (a
/// full disk) throws like any other.
void write_file(const std::string& path, std::string_view content);

}  // namespace rtft
