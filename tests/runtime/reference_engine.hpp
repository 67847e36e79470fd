// Reference simulator — the differential oracle for rt::Engine.
//
// A deliberately naive re-statement of the engine's scheduling semantics
// (runtime/engine.hpp), written for obviousness rather than speed:
//
//   * the future-event queue is one vector kept sorted by (time, kind,
//     creation sequence) — insert by binary search, pop the front;
//   * every released job queues an eager deadline-check event, dispatched
//     after every other kind at its date;
//   * the dispatcher rescans every task per decision: the highest
//     priority wins, FIFO (order of becoming current) within a level;
//   * every event is recorded through a plain trace::Sink pointer.
//
// It covers what tests/runtime/scenario_fuzz.hpp scenarios use — periodic
// tasks with per-job costs, one-shot/periodic/cancelled timers, stop
// requests in both modes, injected overhead and context-switch charging —
// and produces the engine's trace and TaskStats bit for bit. Task
// callbacks, dynamic admission and Engine::sink() are out of scope.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/assert.hpp"
#include "runtime/engine.hpp"
#include "trace/sink.hpp"

namespace rtft::rt::ref {

class ReferenceEngine {
 public:
  using Handler = std::function<void(ReferenceEngine&)>;

  explicit ReferenceEngine(const EngineOptions& options) : opts_(options) {}

  TaskHandle add_task(const sched::TaskParams& params, CostSpec cost = {}) {
    Task t;
    t.params = params;
    t.cost = std::move(cost);
    tasks_.push_back(std::move(t));
    const TaskHandle handle = tasks_.size() - 1;
    push(Ev{Instant::epoch() + params.offset, kRelease, 0, handle, 0, 0});
    return handle;
  }

  TimerHandle add_one_shot_timer(Instant when, Handler handler) {
    timers_.push_back(Timer{std::move(handler), Duration::zero(), false});
    push(Ev{when, kTimer, 0, timers_.size() - 1, -1, 0});
    return timers_.size() - 1;
  }

  TimerHandle add_periodic_timer(Instant first, Duration period,
                                 Handler handler) {
    timers_.push_back(Timer{std::move(handler), period, false});
    push(Ev{first, kTimer, 0, timers_.size() - 1, -1, 0});
    return timers_.size() - 1;
  }

  void cancel_timer(TimerHandle timer) { timers_[timer].cancelled = true; }

  void request_stop(TaskHandle task, StopMode mode,
                    Duration extra_latency = Duration::zero()) {
    Task& t = tasks_[task];
    if (t.stopped) return;
    record(trace::EventKind::kStopRequested, task,
           t.has_current ? t.cur_index : trace::kNoJob);
    Ev ev{now_ + opts_.stop_poll_latency + extra_latency, kStopEffect, 0,
          task, -1, 0};
    ev.stop_mode = mode;
    push(ev);
  }

  void inject_overhead(Duration amount) {
    add_overhead(amount);
    reschedule();
  }

  void run() { run_until(opts_.horizon); }

  void run_until(Instant stop_at) {
    while (!queue_.empty() && queue_.front().time <= stop_at) {
      const Ev ev = queue_.front();
      queue_.erase(queue_.begin());
      advance_to(ev.time);
      dispatch(ev);
      reschedule();
    }
    advance_to(stop_at);
  }

  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  [[nodiscard]] const TaskStats& stats(TaskHandle task) const {
    return tasks_[task].stats;
  }

 private:
  // Dispatch order at equal dates.
  enum Kind : std::uint8_t {
    kCompletion, kOverheadDone, kStopEffect, kTimer, kRelease, kDeadline
  };

  struct Ev {
    Instant time;
    Kind kind;
    std::uint64_t seq;
    std::size_t index;  ///< task or timer.
    std::int64_t job;
    std::uint64_t gen;  ///< completion/overhead validity.
    StopMode stop_mode = StopMode::kTask;
  };

  struct Task {
    sched::TaskParams params;
    CostSpec cost;
    TaskStats stats;
    std::vector<JobOutcome> outcomes;
    std::int64_t released = 0;  ///< jobs released so far.
    std::int64_t started = 0;   ///< jobs made current so far.
    bool stopped = false;
    bool has_current = false;
    std::int64_t cur_index = -1;
    Instant cur_release;
    Duration remaining;
    bool cur_started = false;
    std::uint64_t gen = 0;
    std::uint64_t ready_seq = 0;
  };

  struct Timer {
    Handler handler;
    Duration period;  ///< zero: one-shot.
    bool cancelled;
  };

  void push(Ev ev) {
    ev.seq = next_seq_++;
    const auto later = [](const Ev& a, const Ev& b) {
      if (a.time != b.time) return a.time < b.time;
      if (a.kind != b.kind) return a.kind < b.kind;
      return a.seq < b.seq;
    };
    queue_.insert(std::upper_bound(queue_.begin(), queue_.end(), ev, later),
                  ev);
  }

  void record(trace::EventKind kind, std::size_t task = trace::kNoTask,
              std::int64_t job = trace::kNoJob, std::int64_t detail = 0) {
    if (opts_.sink != nullptr) {
      opts_.sink->record(now_, kind, static_cast<std::uint32_t>(task), job,
                         detail);
    }
  }

  void advance_to(Instant to) {
    RTFT_ASSERT(to >= now_, "time must be monotone");
    const Duration elapsed = to - now_;
    if (cpu_ == kCpuTask) tasks_[running_].remaining -= elapsed;
    if (cpu_ == kCpuOverhead) overhead_ -= elapsed;
    now_ = to;
  }

  void add_overhead(Duration amount) {
    if (amount.is_zero()) return;
    overhead_ += amount;
    if (cpu_ == kCpuOverhead) {  // extend the running interval.
      ++overhead_gen_;
      push(Ev{now_ + overhead_, kOverheadDone, 0, 0, -1, overhead_gen_});
    }
  }

  void start_next_job(std::size_t task) {
    Task& t = tasks_[task];
    t.has_current = true;
    t.cur_index = t.started++;
    t.cur_release = Instant::epoch() + t.params.offset +
                    t.params.period * t.cur_index;
    t.remaining = t.cost.resolve(t.params.cost, t.cur_index);
    if (t.remaining != t.params.cost) {
      record(trace::EventKind::kOverrunInjected, task, t.cur_index,
             (t.remaining - t.params.cost).count());
    }
    t.cur_started = false;
    t.ready_seq = next_ready_seq_++;
  }

  void retire(std::size_t task, JobOutcome outcome, trace::EventKind kind) {
    Task& t = tasks_[task];
    t.outcomes[static_cast<std::size_t>(t.cur_index)] = outcome;
    record(kind, task, t.cur_index,
           outcome == JobOutcome::kCompleted ? (now_ - t.cur_release).count()
                                             : 0);
    if (cpu_ == kCpuTask && running_ == task) cpu_ = kCpuIdle;
    t.gen++;
    t.has_current = false;
    t.cur_index = -1;
  }

  void preempt_running() {
    if (cpu_ != kCpuTask) return;
    Task& t = tasks_[running_];
    record(trace::EventKind::kJobPreempted, running_, t.cur_index);
    t.gen++;
    cpu_ = kCpuIdle;
  }

  /// Linear scan: highest priority, then earliest to become current.
  bool pick(std::size_t& out) const {
    bool found = false;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const Task& t = tasks_[i];
      if (!t.has_current || t.stopped) continue;
      if (!found || t.params.priority > tasks_[out].params.priority ||
          (t.params.priority == tasks_[out].params.priority &&
           t.ready_seq < tasks_[out].ready_seq)) {
        out = i;
        found = true;
      }
    }
    return found;
  }

  void reschedule() {
    // Overhead that drained exactly now yields the CPU at once.
    if (cpu_ == kCpuOverhead && overhead_.is_zero()) {
      ++overhead_gen_;
      cpu_ = kCpuIdle;
    }
    std::size_t top = 0;
    const bool overhead_pending = overhead_.is_positive();
    const bool task_pending = pick(top);

    // A different job taking the CPU first pays the switch as overhead.
    if (!overhead_pending && task_pending &&
        opts_.context_switch_cost.is_positive()) {
      const std::int64_t job = tasks_[top].cur_index;
      const bool different =
          !have_last_ || last_task_ != top || last_job_ != job;
      const bool charged =
          have_charged_ && charged_task_ == top && charged_job_ == job;
      if (different && !charged) {
        have_charged_ = true;
        charged_task_ = top;
        charged_job_ = job;
        add_overhead(opts_.context_switch_cost);
        reschedule();
        return;
      }
    }

    if (overhead_pending) {
      if (cpu_ == kCpuOverhead) return;
      preempt_running();
      cpu_ = kCpuOverhead;
      ++overhead_gen_;
      push(Ev{now_ + overhead_, kOverheadDone, 0, 0, -1, overhead_gen_});
      return;
    }
    if (!task_pending) {
      cpu_ = kCpuIdle;
      return;
    }
    if (cpu_ == kCpuTask && running_ == top) return;

    preempt_running();
    cpu_ = kCpuTask;
    running_ = top;
    Task& t = tasks_[top];
    record(t.cur_started ? trace::EventKind::kJobResumed
                         : trace::EventKind::kJobStart,
           top, t.cur_index);
    t.cur_started = true;
    have_last_ = true;
    last_task_ = top;
    last_job_ = t.cur_index;
    have_charged_ = false;
    t.gen++;
    push(Ev{now_ + t.remaining, kCompletion, 0, top, t.cur_index, t.gen});
  }

  void dispatch(const Ev& ev) {
    switch (ev.kind) {
      case kCompletion: {
        Task& t = tasks_[ev.index];
        if (ev.gen != t.gen) return;  // preempted or aborted since.
        const Duration response = now_ - t.cur_release;
        t.stats.completed++;
        t.stats.last_response = response;
        t.stats.max_response = std::max(t.stats.max_response, response);
        retire(ev.index, JobOutcome::kCompleted, trace::EventKind::kJobEnd);
        if (t.started < t.released) start_next_job(ev.index);
        return;
      }
      case kOverheadDone:
        if (ev.gen == overhead_gen_) cpu_ = kCpuIdle;
        return;
      case kStopEffect: {
        Task& t = tasks_[ev.index];
        if (t.stopped) return;
        if (ev.stop_mode == StopMode::kTask) {
          t.stopped = true;
          t.stats.stopped = true;
          record(trace::EventKind::kTaskStopped, ev.index,
                 t.has_current ? t.cur_index : trace::kNoJob);
          if (t.has_current) {
            t.stats.aborted++;
            retire(ev.index, JobOutcome::kAborted,
                   trace::EventKind::kJobAborted);
          }
          for (; t.started < t.released; ++t.started) {
            t.outcomes[static_cast<std::size_t>(t.started)] =
                JobOutcome::kSkipped;
          }
        } else if (t.has_current) {
          t.stats.aborted++;
          retire(ev.index, JobOutcome::kAborted, trace::EventKind::kJobAborted);
          if (t.started < t.released) start_next_job(ev.index);
        }
        return;
      }
      case kTimer: {
        Timer& timer = timers_[ev.index];
        if (timer.cancelled) return;
        record(trace::EventKind::kTimerFire, trace::kNoTask, trace::kNoJob,
               static_cast<std::int64_t>(ev.index));
        if (timer.period.is_positive()) {
          push(Ev{now_ + timer.period, kTimer, 0, ev.index, -1, 0});
        }
        if (timer.handler) timer.handler(*this);
        return;
      }
      case kRelease: {
        Task& t = tasks_[ev.index];
        if (t.stopped) return;
        t.released++;
        t.outcomes.push_back(JobOutcome::kPending);
        t.stats.released++;
        record(trace::EventKind::kJobRelease, ev.index, ev.job);
        push(Ev{now_ + t.params.deadline, kDeadline, 0, ev.index, ev.job, 0});
        push(Ev{now_ + t.params.period, kRelease, 0, ev.index, ev.job + 1, 0});
        if (!t.has_current) start_next_job(ev.index);
        return;
      }
      case kDeadline: {
        Task& t = tasks_[ev.index];
        if (t.outcomes[static_cast<std::size_t>(ev.job)] !=
            JobOutcome::kCompleted) {
          t.stats.missed++;
          record(trace::EventKind::kDeadlineMiss, ev.index, ev.job);
        }
        return;
      }
    }
  }

  enum Cpu : std::uint8_t { kCpuIdle, kCpuOverhead, kCpuTask };

  EngineOptions opts_;
  std::vector<Task> tasks_;
  std::vector<Timer> timers_;
  std::vector<Ev> queue_;  ///< sorted: front() dispatches next.
  Instant now_ = Instant::epoch();
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_ready_seq_ = 0;
  Cpu cpu_ = kCpuIdle;
  std::size_t running_ = 0;
  Duration overhead_;
  std::uint64_t overhead_gen_ = 0;
  bool have_last_ = false;  ///< last job to hold the CPU.
  std::size_t last_task_ = 0;
  std::int64_t last_job_ = -1;
  bool have_charged_ = false;  ///< job a pending switch charge is for.
  std::size_t charged_task_ = 0;
  std::int64_t charged_job_ = -1;
};

}  // namespace rtft::rt::ref
