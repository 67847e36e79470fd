// In-memory trace recorder (paper §5: StringBuffer-buffered measurements,
// written out only after the run) — the full-fidelity trace::Sink.
#pragma once

#include <span>
#include <vector>

#include "trace/sink.hpp"

namespace rtft::trace {

/// Append-only event buffer. Preallocates so that recording during a
/// simulated (or wall-clock) run performs no I/O and, until the reserve
/// is exhausted, no allocation.
class Recorder final : public Sink {
 public:
  /// `reserve` — number of events to preallocate.
  explicit Recorder(std::size_t reserve = 1 << 16);

  using Sink::record;
  void record(const TraceEvent& event) override;

  [[nodiscard]] std::span<const TraceEvent> events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace rtft::trace
