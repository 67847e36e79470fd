#include "sweep/progress.hpp"

#include "common/strings.hpp"

namespace rtft::sweep {

namespace {

constexpr std::string_view kMachinePrefix = "progress";

/// Parses the bare "<done>/<total>" fraction.
bool parse_fraction(std::string_view text, ProgressUpdate& out) {
  const auto parts = split(text, '/');
  if (parts.size() != 2) return false;
  std::int64_t done = 0;
  std::int64_t total = 0;
  if (!parse_int64(parts[0], done) || !parse_int64(parts[1], total)) {
    return false;
  }
  if (done < 0 || total < 0 || done > total) return false;
  out.done = static_cast<std::uint64_t>(done);
  out.total = static_cast<std::uint64_t>(total);
  return true;
}

}  // namespace

std::string progress_line(const ProgressUpdate& update) {
  std::string line(kMachinePrefix);
  line += ' ';
  line += std::to_string(update.done);
  line += '/';
  line += std::to_string(update.total);
  line += '\n';
  return line;
}

bool parse_progress_token(std::string_view token, ProgressUpdate& out) {
  token = trim(token);
  if (token.substr(0, kMachinePrefix.size()) != kMachinePrefix) return false;
  return parse_fraction(trim(token.substr(kMachinePrefix.size())), out);
}

void ProgressParser::feed(std::string_view bytes, const Callback& on_update) {
  for (const char c : bytes) {
    if (c != '\r' && c != '\n') {
      buffer_.push_back(c);
      continue;
    }
    ProgressUpdate update;
    if (parse_progress_token(buffer_, update) && on_update) {
      on_update(update);
    }
    buffer_.clear();
  }
}

void ProgressParser::finish(const Callback& on_update) {
  ProgressUpdate update;
  if (parse_progress_token(buffer_, update) && on_update) {
    on_update(update);
  }
  buffer_.clear();
}

}  // namespace rtft::sweep
