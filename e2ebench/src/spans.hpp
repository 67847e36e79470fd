// In-memory span log for the traced run. One log per thread: a span is
// (name, start, end, parent, item id), recorded around each call the
// benchmark makes into a library layer, and written out when the run
// ends. A span's self time is its duration minus its children's.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"

namespace e2e {

inline constexpr std::int32_t kNoParent = -1;

class SpanLog {
 public:
  SpanLog();

  /// Opens a span and returns its id; close it with end().
  std::int32_t begin(const char* name, std::int32_t parent, std::uint64_t item);
  void end(std::int32_t id);
  /// Makes room for `more` spans, so recording them never reallocates
  /// (a reallocation stalls the recording thread for milliseconds).
  void reserve(std::size_t more) { spans_.reserve(spans_.size() + more); }
  /// Records an already finished span (e.g. due time to completion).
  void record(const char* name, std::int32_t parent, std::uint64_t item,
              Clock::time_point start, Clock::time_point end);

  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  /// Per span name: how many, total and self nanoseconds.
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Appends every span as one CSV row (thread tag first).
  void write_csv(std::FILE* out, int thread_tag) const;

 private:
  struct Span {
    const char* name;
    std::int32_t parent;
    std::uint64_t item;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
};

/// RAII span: opens in the constructor, closes in the destructor. A null
/// log records nothing, so untraced code paths share the traced ones.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int32_t parent,
        std::uint64_t item)
      : log_(log), id_(log ? log->begin(name, parent, item) : kNoParent) {}
  ~Scope() {
    if (log_) log_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::int32_t id_;
};

/// Mean microseconds per span named `name`: self time, or total time
/// when `self` is false. 0 when no such span was recorded.
[[nodiscard]] double mean_us(const std::map<std::string, SpanLog::Totals>& t,
                             const char* name, bool self = true);

}  // namespace e2e
