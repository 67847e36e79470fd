#include "core/detector.hpp"

#include "common/assert.hpp"
#include "trace/events.hpp"

namespace rtft::core {

DetectorBank::DetectorBank(rt::Engine& engine,
                           std::vector<rt::TaskHandle> tasks,
                           std::vector<Duration> thresholds,
                           DetectorConfig config, FaultHandler handler)
    : config_(config), handler_(std::move(handler)) {
  RTFT_EXPECTS(tasks.size() == thresholds.size(),
               "one threshold per watched task");
  watches_.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    RTFT_EXPECTS(!thresholds[i].is_negative(),
                 "detector thresholds must be non-negative");
    Watch w;
    w.task = tasks[i];
    w.raw_threshold = thresholds[i];
    w.quantized_threshold = config_.quantizer.apply(thresholds[i]);
    const sched::TaskParams& params = engine.params(w.task);
    // First fire watches job 0: its release date plus the threshold.
    Instant first = engine.first_release(w.task) + w.quantized_threshold;
    if (first < engine.now()) {
      // Mid-run arming: skip to the first job whose watch date is still
      // ahead of us.
      const std::int64_t skipped =
          ceil_div(engine.now() - first, params.period);
      first = first + params.period * skipped;
      w.next_job = skipped;
    }
    const std::size_t watch_index = watches_.size();
    w.timer = engine.add_periodic_timer(
        first, params.period,
        [this, watch_index](rt::Engine& e) { on_fire(e, watch_index); });
    watches_.push_back(w);
  }
}

void DetectorBank::cancel(rt::Engine& engine) {
  for (const Watch& w : watches_) engine.cancel_timer(w.timer);
}

void DetectorBank::on_fire(rt::Engine& engine, std::size_t watch_index) {
  Watch& w = watches_[watch_index];
  // A stopped task releases no further jobs; its detector retires too
  // (the paper's detector dies with its thread).
  if (engine.stats(w.task).stopped) {
    engine.cancel_timer(w.timer);
    return;
  }
  const std::int64_t job = w.next_job++;
  trace::Sink* sink = engine.sink();
  if (sink != nullptr) {
    sink->record(engine.now(), trace::EventKind::kDetectorFire,
                 static_cast<std::uint32_t>(w.task), job, 0);
  }
  if (config_.fire_cost.is_positive()) {
    engine.inject_overhead(config_.fire_cost);
  }
  if (!engine.job_completed(w.task, job)) {
    w.faults++;
    if (sink != nullptr) {
      sink->record(engine.now(), trace::EventKind::kFaultDetected,
                   static_cast<std::uint32_t>(w.task), job, 0);
    }
    if (handler_) handler_(engine, w.task, job);
  }
}

Duration DetectorBank::quantized_threshold(std::size_t i) const {
  RTFT_EXPECTS(i < watches_.size(), "watch index out of range");
  return watches_[i].quantized_threshold;
}

Duration DetectorBank::raw_threshold(std::size_t i) const {
  RTFT_EXPECTS(i < watches_.size(), "watch index out of range");
  return watches_[i].raw_threshold;
}

std::int64_t DetectorBank::faults_detected(std::size_t i) const {
  RTFT_EXPECTS(i < watches_.size(), "watch index out of range");
  return watches_[i].faults;
}

std::int64_t DetectorBank::total_faults() const {
  std::int64_t total = 0;
  for (const Watch& w : watches_) total += w.faults;
  return total;
}

}  // namespace rtft::core
