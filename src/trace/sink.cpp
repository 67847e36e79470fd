#include "trace/sink.hpp"

namespace rtft::trace {

NullSink& NullSink::instance() {
  static NullSink sink;
  return sink;
}

void CountingSink::reset() {
  tasks_.clear();
  for (std::int64_t& n : kind_totals_) n = 0;
}

const TaskCounters& CountingSink::counters(std::size_t task) const {
  static const TaskCounters kZero{};
  return task < tasks_.size() ? tasks_[task] : kZero;
}

}  // namespace rtft::trace
