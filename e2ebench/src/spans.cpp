#include "spans.hpp"

#include <cinttypes>
#include <cstdio>

namespace e2e {

namespace {

/// One origin for every thread's log, so span dates line up across logs.
const Clock::time_point kOrigin = Clock::now();

std::int64_t ns_of(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kOrigin)
      .count();
}

std::int64_t now_ns() { return ns_of(Clock::now()); }

}  // namespace

SpanLog::SpanLog() { spans_.reserve(1 << 16); }

std::int32_t SpanLog::begin(const char* name, std::int32_t parent,
                            std::uint64_t item) {
  spans_.push_back({name, parent, item, now_ns(), 0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

void SpanLog::record(const char* name, std::int32_t parent, std::uint64_t item,
                     Clock::time_point start, Clock::time_point end) {
  spans_.push_back({name, parent, item, ns_of(start), ns_of(end)});
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  // Children of one parent are nested inside it and never overlap (one
  // log per thread), so self time is the duration minus the children's.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    Totals& t = out[s.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
  }
  return out;
}

void SpanLog::write_csv(std::FILE* out, int thread_tag) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%d,%zu,%d,%s,%" PRIu64 ",%" PRId64 ",%" PRId64 "\n",
                 thread_tag, i, s.parent, s.name, s.item, s.start_ns,
                 s.end_ns);
  }
}

double mean_us(const std::map<std::string, SpanLog::Totals>& t,
               const char* name, bool self) {
  const auto it = t.find(name);
  if (it == t.end() || it->second.count == 0) return 0.0;
  const double ns = self ? it->second.self_ns : it->second.total_ns;
  return ns / 1e3 / static_cast<double>(it->second.count);
}

}  // namespace e2e
