#include "runtime/engine.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"
#include "runtime/indexed_heap.hpp"
#include "runtime/ready_queue.hpp"

namespace rtft::rt {
namespace {

/// Event kinds in dispatch order at equal dates (smaller = first). The
/// end of the running job or overhead interval orders before all of them
/// and is never queued (Impl::cpu_until); deadline checks order after all
/// of them and live in DeadlineHeap.
enum class EvKind : std::uint8_t { kStopEffect, kTimer, kRelease };

/// One queued event. A release's job index is its task's
/// next_release_index, so the owner's slot is all an event carries.
struct Ev {
  Instant time;
  std::uint64_t seq = 0;    ///< creation order; final tie-breaker.
  std::uint32_t index = 0;  ///< task or timer index.
  EvKind kind{};
  StopMode stop_mode = StopMode::kTask;
};
static_assert(sizeof(Ev) == 24, "Ev is the queue's unit of sift traffic");

/// Heap order: true when `a` dispatches after `b`, so the std heap
/// algorithms keep the earliest event in front. Dispatch order is
/// (time, kind, seq) — total, since seq is unique.
struct EvLater {
  bool operator()(const Ev& a, const Ev& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.seq > b.seq;
  }
};

/// One lazily validated deadline: job `job` of its task is checked at
/// `due`; `seq` orders checks that fall due together by release order.
struct DlPend {
  Instant due;
  std::uint64_t seq = 0;
  std::int64_t job = -1;
};

/// One task's earliest pending deadline, keyed for the lazy deadline
/// index: an indexed min-heap over task slots ordered (due asc, seq
/// asc). Per-task deadlines are FIFO (releases are in order and the
/// relative deadline is fixed), so one entry per task suffices: the
/// heap holds at most n_tasks entries, not one per outstanding job.
struct DlHead {
  std::int64_t due_ns;
  std::uint64_t seq;
  std::uint32_t task;
};

struct DlBefore {
  bool operator()(const DlHead& a, const DlHead& b) const {
    if (a.due_ns != b.due_ns) return a.due_ns < b.due_ns;
    return a.seq < b.seq;
  }
};

using DeadlineHeap = TaskIndexedHeap<DlHead, DlBefore>;

/// What the CPU is doing.
enum class CpuState : std::uint8_t { kIdle, kOverhead, kTask };

struct TaskRec {
  sched::TaskParams params;
  CostSpec cost;
  TaskCallbacks callbacks;
  Instant start;  ///< base instant; releases at start + offset + k*T.

  bool stopped = false;
  std::int64_t next_release_index = 0;  ///< next release event to dispatch.
  std::int64_t next_start_index = 0;    ///< next job to begin execution.

  bool has_current = false;
  std::int64_t cur_index = -1;
  Instant cur_release;
  Duration remaining;
  bool cur_started = false;       ///< current job has held the CPU before.
  std::uint64_t ready_seq = 0;    ///< FIFO order within a priority level.

  std::vector<JobOutcome> outcomes;  ///< per released job.
  /// Deadlines awaiting validation, FIFO in [dl_head, dl_pending.size()).
  std::vector<DlPend> dl_pending;
  std::size_t dl_head = 0;
  TaskStats stats;
};

struct TimerRec {
  TimerHandler handler;
  Duration period;        ///< zero for one-shot.
  bool periodic = false;
  bool cancelled = false;
};

}  // namespace

struct Engine::Impl {
  EngineOptions options;
  trace::Sink* sink = nullptr;  ///< options.sink; null records nothing.
  /// Future events: a binary heap, earliest in front. It holds one
  /// release per live task, one fire per armed timer and the stop
  /// effects in flight.
  std::vector<Ev> events;
  DeadlineHeap deadlines;  ///< lazy deadline index.
  ReadyQueue ready;  ///< tasks with a current job, in dispatch order.
  std::vector<TaskRec> tasks;   ///< slots; [0, n_tasks) are live.
  std::vector<TimerRec> timers; ///< slots; [0, n_timers) are live.
  std::size_t n_tasks = 0;
  std::size_t n_timers = 0;

  Instant now = Instant::epoch();
  std::uint64_t next_seq = 0;
  std::uint64_t next_ready_seq = 0;

  CpuState cpu = CpuState::kIdle;
  std::size_t running_task = 0;       ///< valid when cpu == kTask.
  Instant cpu_until;                  ///< end of the running job or overhead.
  Duration overhead_backlog;          ///< work at above-task priority.

  /// Context-switch accounting: the job last holding the CPU and the job
  /// a pending switch charge was issued for.
  bool have_last_job = false;
  std::size_t last_job_task = 0;
  std::int64_t last_job_index = -1;
  bool have_charged_job = false;
  std::size_t charged_task = 0;
  std::int64_t charged_index = -1;

  /// Restores pristine pre-run state; keeps slot and pool capacity.
  void rearm(EngineOptions opts) {
    options = opts;
    sink = opts.sink;
    events.clear();
    deadlines.clear();
    ready.clear();
    // Drop the closures of the previous run now: a shrinking follow-up
    // run would otherwise pin their captured state in unused slots.
    for (std::size_t i = 0; i < n_tasks; ++i) {
      tasks[i].cost = {};
      tasks[i].callbacks = {};
      tasks[i].dl_pending.clear();
      tasks[i].dl_head = 0;
    }
    for (std::size_t i = 0; i < n_timers; ++i) timers[i].handler = nullptr;
    n_tasks = 0;
    n_timers = 0;
    now = Instant::epoch();
    next_seq = 0;
    next_ready_seq = 0;
    cpu = CpuState::kIdle;
    running_task = 0;
    overhead_backlog = Duration::zero();
    have_last_job = false;
    last_job_task = 0;
    last_job_index = -1;
    have_charged_job = false;
    charged_task = 0;
    charged_index = -1;
  }

  // -- helpers ------------------------------------------------------------

  std::uint32_t trace_id(std::size_t task) const {
    return static_cast<std::uint32_t>(task);
  }

  /// The engine's own event write: one null test when unobserved.
  void record(Instant time, trace::EventKind kind,
              std::uint32_t task = trace::kNoTask,
              std::int64_t job = trace::kNoJob, std::int64_t detail = 0) {
    if (sink != nullptr) sink->record(time, kind, task, job, detail);
  }

  void push(Ev ev) {
    ev.seq = next_seq++;
    events.push_back(ev);
    std::push_heap(events.begin(), events.end(), EvLater{});
  }

  /// Drops the front: the event being dispatched.
  void pop_front() {
    std::pop_heap(events.begin(), events.end(), EvLater{});
    events.pop_back();
  }

  /// Hands the front (the event being dispatched) to its owner's next
  /// event: one sift-down from the root, no pop and push.
  void replace_front(Ev ev) {
    ev.seq = next_seq++;
    const std::size_t n = events.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && EvLater{}(events[child], events[child + 1])) {
        ++child;
      }
      if (!EvLater{}(ev, events[child])) break;
      events[hole] = events[child];
      hole = child;
    }
    events[hole] = ev;
  }

  // -- lazy deadline validation -----------------------------------------
  //
  // A deadline check reads the job's outcome at the deadline date and
  // records a miss unless it completed. Outcomes only change when events
  // dispatch, so flushing all deadlines dated strictly before the next
  // event (and through stop_at when a run drains) reads exactly the state
  // a queued check event — ordered after every other kind at its date —
  // would have seen, with the same miss dates and order: (due, seq). A job
  // completing in time retires its pending entry on the spot, so the
  // index tracks only jobs that can still miss.
  // tests/runtime/reference_engine.hpp states the eager form.

  /// Registers job `job` of `task` (dispatching its release right now)
  /// for lazy validation at `due`. Its sequence number comes from the
  /// event stream, so simultaneous deadlines check in release order.
  void dl_push(std::size_t task, std::int64_t job, Instant due) {
    TaskRec& t = tasks[task];
    const std::uint64_t seq = next_seq++;
    if (t.dl_head == t.dl_pending.size()) {
      t.dl_pending.clear();
      t.dl_head = 0;
    }
    t.dl_pending.push_back(DlPend{due, seq, job});
    if (t.dl_pending.size() - t.dl_head == 1) {
      deadlines.insert(
          DlHead{due.count(), seq, static_cast<std::uint32_t>(task)});
    }
  }

  /// Drops `task`'s earliest pending deadline and re-keys the heap.
  void dl_advance(std::size_t task) {
    TaskRec& t = tasks[task];
    RTFT_ASSERT(t.dl_head < t.dl_pending.size(), "no pending deadline");
    t.dl_head++;
    if (t.dl_head < t.dl_pending.size()) {
      const DlPend& next = t.dl_pending[t.dl_head];
      deadlines.update(DlHead{next.due.count(), next.seq,
                              static_cast<std::uint32_t>(task)});
    } else {
      deadlines.erase(task);
      t.dl_pending.clear();
      t.dl_head = 0;
    }
  }

  /// Runs every pending deadline check dated before `limit` (through
  /// `limit` when `inclusive`), in (due, seq) order.
  void flush_deadlines(Instant limit, bool inclusive) {
    while (!deadlines.empty()) {
      const std::size_t task = deadlines.top().task;
      TaskRec& t = tasks[task];
      const DlPend head = t.dl_pending[t.dl_head];
      if (inclusive ? head.due > limit : head.due >= limit) break;
      const auto idx = static_cast<std::size_t>(head.job);
      RTFT_ASSERT(idx < t.outcomes.size(), "deadline check for unreleased job");
      if (t.outcomes[idx] != JobOutcome::kCompleted) {
        t.stats.missed++;
        record(head.due, trace::EventKind::kDeadlineMiss, trace_id(task),
               head.job, 0);
      }
      dl_advance(task);
    }
  }

  Instant release_date(const TaskRec& t, std::int64_t index) const {
    return t.start + t.params.offset + t.params.period * index;
  }

  Duration actual_cost(TaskRec& t, std::int64_t index) {
    return t.cost.resolve(t.params.cost, index);
  }

  /// Accounts CPU execution between the previous event and `to`.
  void advance_to(Instant to) {
    RTFT_ASSERT(to >= now, "time must be monotone");
    const Duration elapsed = to - now;
    if (elapsed.is_positive()) {
      if (cpu == CpuState::kTask) {
        TaskRec& t = tasks[running_task];
        RTFT_ASSERT(t.remaining >= elapsed,
                    "running job cannot execute past its completion");
        t.remaining -= elapsed;
      } else if (cpu == CpuState::kOverhead) {
        RTFT_ASSERT(overhead_backlog >= elapsed,
                    "overhead cannot execute past its end");
        overhead_backlog -= elapsed;
      }
    }
    now = to;
  }

  /// Makes the next backlogged job of `t` current (ready to execute).
  void start_next_job(std::size_t task_idx) {
    TaskRec& t = tasks[task_idx];
    RTFT_ASSERT(!t.has_current, "previous job still current");
    RTFT_ASSERT(t.next_start_index < t.next_release_index,
                "no released job to start");
    const std::int64_t index = t.next_start_index++;
    t.has_current = true;
    t.cur_index = index;
    t.cur_release = release_date(t, index);
    t.remaining = actual_cost(t, index);
    if (t.remaining != t.params.cost) {
      record(now, trace::EventKind::kOverrunInjected, trace_id(task_idx), index,
             (t.remaining - t.params.cost).count());
    }
    t.cur_started = false;
    t.ready_seq = next_ready_seq++;
    ready.insert(task_idx, t.params.priority, t.ready_seq);
  }

  /// Ends the current job of `task_idx` with the given outcome and
  /// releases the CPU if that job held it.
  void retire_current_job(std::size_t task_idx, JobOutcome outcome,
                          trace::EventKind record_kind) {
    TaskRec& t = tasks[task_idx];
    RTFT_ASSERT(t.has_current, "no current job to retire");
    const std::int64_t index = t.cur_index;
    t.outcomes[static_cast<std::size_t>(index)] = outcome;
    record(now, record_kind, trace_id(task_idx), index,
           outcome == JobOutcome::kCompleted
               ? (now - t.cur_release).count()
               : 0);
    if (cpu == CpuState::kTask && running_task == task_idx) {
      cpu = CpuState::kIdle;  // reschedule() will pick the next activity.
    }
    ready.erase(task_idx);
    t.has_current = false;
    t.cur_index = -1;
  }

  /// Re-evaluates what the CPU should run after any state change.
  void reschedule() {
    // run_until() ends an overhead interval at its own date, before any
    // queued event there, so the running one always has work left.
    RTFT_ASSERT(cpu != CpuState::kOverhead || overhead_backlog.is_positive(),
                "drained overhead still holds the CPU");
    // Decide the next activity: overhead first, then the top ready job.
    // The ready queue holds exactly the tasks with a current job (a kTask
    // stop retires the current job before the next reschedule()).
    const bool overhead_pending = overhead_backlog.is_positive();
    const bool task_pending = !ready.empty();
    const std::size_t top = task_pending ? ready.top() : 0;

    // Charge a context switch when a *different* job is about to take the
    // CPU. The charge itself runs as overhead, so the switch target keeps
    // its charge across the overhead interval.
    if (!overhead_pending && task_pending &&
        options.context_switch_cost.is_positive()) {
      const bool different =
          !have_last_job || last_job_task != top ||
          last_job_index != tasks[top].cur_index;
      const bool already_charged = have_charged_job && charged_task == top &&
                                   charged_index == tasks[top].cur_index;
      if (different && !already_charged) {
        have_charged_job = true;
        charged_task = top;
        charged_index = tasks[top].cur_index;
        inject_overhead_now(options.context_switch_cost);
        reschedule();
        return;
      }
    }

    if (overhead_pending) {
      if (cpu == CpuState::kOverhead) return;  // already running it
      preempt_running_job();
      cpu = CpuState::kOverhead;
      cpu_until = now + overhead_backlog;
      return;
    }

    if (!task_pending) {
      RTFT_ASSERT(cpu != CpuState::kTask,
                  "running job not found by dispatcher");
      cpu = CpuState::kIdle;  // idle intervals are derived from the trace
      return;
    }

    if (cpu == CpuState::kTask && running_task == top) return;  // no change

    preempt_running_job();
    cpu = CpuState::kTask;
    running_task = top;
    TaskRec& t = tasks[top];
    record(now,
           t.cur_started ? trace::EventKind::kJobResumed
                         : trace::EventKind::kJobStart,
           trace_id(top), t.cur_index, 0);
    if (!t.cur_started) {
      t.cur_started = true;
      if (t.callbacks.on_job_begin) {
        t.callbacks.on_job_begin(*owner, t.cur_index);
      }
    }
    have_last_job = true;
    last_job_task = top;
    last_job_index = t.cur_index;
    // The dispatch consumed any pending switch charge.
    have_charged_job = false;
    cpu_until = now + t.remaining;
  }

  void preempt_running_job() {
    if (cpu == CpuState::kTask) {
      TaskRec& t = tasks[running_task];
      record(now, trace::EventKind::kJobPreempted, trace_id(running_task),
             t.cur_index, 0);
      cpu = CpuState::kIdle;
    }
    // Overhead is never preempted (it is the highest priority); a running
    // overhead interval simply continues — callers only preempt tasks.
  }

  void inject_overhead_now(Duration amount) {
    RTFT_EXPECTS(!amount.is_negative(), "overhead must be non-negative");
    if (amount.is_zero()) return;
    overhead_backlog += amount;
    if (cpu == CpuState::kOverhead) cpu_until = now + overhead_backlog;
  }

  // -- event handlers -----------------------------------------------------

  // Each handler retires the front (its own event) before anything it
  // runs can queue more.

  void on_release(const Ev& ev) {
    TaskRec& t = tasks[ev.index];
    if (t.stopped) {
      pop_front();
      return;
    }
    const std::int64_t index = t.next_release_index++;
    t.outcomes.push_back(JobOutcome::kPending);
    t.stats.released++;
    record(now, trace::EventKind::kJobRelease, trace_id(ev.index), index, 0);
    dl_push(ev.index, index, now + t.params.deadline);
    // The following release takes this one's place (one per task).
    replace_front(Ev{now + t.params.period, 0, ev.index, EvKind::kRelease});
    if (!t.has_current) start_next_job(ev.index);
  }

  /// Ends the CPU slot at cpu_until: the overhead interval drains or the
  /// running job completes.
  void end_cpu_slot() {
    if (cpu == CpuState::kOverhead) {
      RTFT_ASSERT(overhead_backlog.is_zero(), "overhead has work left");
      cpu = CpuState::kIdle;
      return;
    }
    const std::size_t task = running_task;
    TaskRec& t = tasks[task];
    RTFT_ASSERT(t.remaining.is_zero(), "completed job has work left");
    const std::int64_t index = t.cur_index;
    const Duration response = now - t.cur_release;
    t.stats.completed++;
    t.stats.last_response = response;
    if (response > t.stats.max_response) t.stats.max_response = response;
    retire_current_job(task, JobOutcome::kCompleted,
                       trace::EventKind::kJobEnd);
    // A job completing by its deadline can never miss: retire its
    // pending lazy check on the spot (it is the task's earliest — any
    // earlier deadline was flushed before the slot ended).
    if (t.dl_head < t.dl_pending.size()) {
      const DlPend& head = t.dl_pending[t.dl_head];
      if (head.job == index && now <= head.due) dl_advance(task);
    }
    if (t.callbacks.on_job_end) t.callbacks.on_job_end(*owner, index);
    if (t.next_start_index < t.next_release_index) start_next_job(task);
  }

  void on_timer(const Ev& ev) {
    TimerRec& timer = timers[ev.index];
    if (timer.periodic && !timer.cancelled) {
      replace_front(Ev{now + timer.period, 0, ev.index, EvKind::kTimer});
    } else {
      pop_front();
    }
    if (timer.cancelled) return;
    record(now, trace::EventKind::kTimerFire, trace::kNoTask, trace::kNoJob,
           static_cast<std::int64_t>(ev.index));
    if (timer.handler) timer.handler(*owner);
  }

  void on_stop_effect(const Ev& ev) {
    pop_front();
    TaskRec& t = tasks[ev.index];
    if (t.stopped) return;
    if (ev.stop_mode == StopMode::kTask) {
      t.stopped = true;
      t.stats.stopped = true;
      record(now, trace::EventKind::kTaskStopped, trace_id(ev.index),
             t.has_current ? t.cur_index : trace::kNoJob, 0);
      if (t.has_current) {
        t.stats.aborted++;
        retire_current_job(ev.index, JobOutcome::kAborted,
                           trace::EventKind::kJobAborted);
      }
      // Released-but-unstarted jobs will never run.
      while (t.next_start_index < t.next_release_index) {
        t.outcomes[static_cast<std::size_t>(t.next_start_index)] =
            JobOutcome::kSkipped;
        t.next_start_index++;
      }
    } else {  // kJob
      if (t.has_current) {
        t.stats.aborted++;
        retire_current_job(ev.index, JobOutcome::kAborted,
                           trace::EventKind::kJobAborted);
        if (t.next_start_index < t.next_release_index) {
          start_next_job(ev.index);
        }
      }
    }
  }

  void dispatch(const Ev& ev) {
    switch (ev.kind) {
      case EvKind::kStopEffect: on_stop_effect(ev); break;
      case EvKind::kTimer: on_timer(ev); break;
      case EvKind::kRelease: on_release(ev); break;
    }
  }

  void run_until(Instant stop_at) {
    RTFT_EXPECTS(stop_at <= options.horizon, "cannot run past the horizon");
    RTFT_EXPECTS(stop_at >= now, "cannot run backwards");
    // Deadline checks order after every other kind at their date, so
    // flush those dated strictly before each step (and the rest through
    // stop_at once nothing is left to run).
    while (true) {
      const Ev* next = events.empty() ? nullptr : &events.front();
      if (cpu != CpuState::kIdle && cpu_until <= stop_at &&
          (next == nullptr || cpu_until <= next->time)) {
        // The CPU slot ends before every queued kind at its date.
        flush_deadlines(cpu_until, /*inclusive=*/false);
        advance_to(cpu_until);
        end_cpu_slot();
      } else if (next != nullptr && next->time <= stop_at) {
        const Ev ev = *next;
        flush_deadlines(ev.time, /*inclusive=*/false);
        advance_to(ev.time);
        dispatch(ev);
      } else {
        break;
      }
      reschedule();
    }
    flush_deadlines(stop_at, /*inclusive=*/true);
    advance_to(stop_at);
  }

  Engine* owner = nullptr;  ///< back-pointer for handler invocation.
};

namespace {

void validate_options(const EngineOptions& options) {
  RTFT_EXPECTS(options.horizon > Instant::epoch(),
               "engine horizon must be positive");
  RTFT_EXPECTS(!options.stop_poll_latency.is_negative(),
               "stop poll latency must be non-negative");
  RTFT_EXPECTS(!options.context_switch_cost.is_negative(),
               "context switch cost must be non-negative");
}

}  // namespace

Engine::Engine() : impl_(std::make_unique<Impl>()) { impl_->owner = this; }

Engine::Engine(EngineOptions options) : Engine() { reset(options); }

Engine::~Engine() = default;

void Engine::reset(EngineOptions options) {
  validate_options(options);
  impl_->rearm(options);
}

void Engine::reserve(std::size_t tasks, std::size_t events) {
  Impl& im = *impl_;
  im.tasks.reserve(tasks);
  im.timers.reserve(tasks);
  im.ready.reserve(tasks);
  im.deadlines.reserve(tasks);
  im.events.reserve(events);
}

TaskHandle Engine::add_task(const sched::TaskParams& params, CostSpec cost,
                            TaskCallbacks callbacks, Instant start) {
  RTFT_EXPECTS(impl_->options.horizon > Instant::epoch(),
               "an unarmed engine takes no tasks: reset() arms it");
  sched::validate_params(params);
  const Instant first_release = start + params.offset;
  RTFT_EXPECTS(first_release >= impl_->now,
               "task '" + params.name + "': first release lies in the past");
  Impl& im = *impl_;
  if (im.n_tasks == im.tasks.size()) im.tasks.emplace_back();
  TaskRec& rec = im.tasks[im.n_tasks];
  // Reset the reused slot by construction (future TaskRec fields cannot
  // leak across runs), keeping only the per-job vectors' capacity.
  std::vector<JobOutcome> outcomes = std::move(rec.outcomes);
  outcomes.clear();
  std::vector<DlPend> dl_pending = std::move(rec.dl_pending);
  dl_pending.clear();
  rec = TaskRec{};
  rec.outcomes = std::move(outcomes);
  rec.dl_pending = std::move(dl_pending);
  rec.params = params;
  rec.cost = std::move(cost);
  rec.callbacks = std::move(callbacks);
  rec.start = start;
  // Pre-size the outcome log to the number of jobs the window can
  // release, so steady-state recording never grows mid-run (capped to
  // keep a pathological period from reserving gigabytes).
  if (first_release <= im.options.horizon) {
    const std::int64_t expected =
        (im.options.horizon - first_release) / params.period + 1;
    constexpr std::int64_t kReserveCap = std::int64_t{1} << 20;
    rec.outcomes.reserve(
        static_cast<std::size_t>(std::min(expected, kReserveCap)));
  }
  const TaskHandle handle = im.n_tasks++;
  im.push(Ev{first_release, 0, static_cast<std::uint32_t>(handle),
             EvKind::kRelease});
  return handle;
}

TimerHandle Engine::add_one_shot_timer(Instant when, TimerHandler handler) {
  RTFT_EXPECTS(when >= impl_->now, "timer date lies in the past");
  Impl& im = *impl_;
  if (im.n_timers == im.timers.size()) im.timers.emplace_back();
  im.timers[im.n_timers] =
      TimerRec{std::move(handler), Duration::zero(), false, false};
  const TimerHandle handle = im.n_timers++;
  im.push(Ev{when, 0, static_cast<std::uint32_t>(handle), EvKind::kTimer});
  return handle;
}

TimerHandle Engine::add_periodic_timer(Instant first, Duration period,
                                       TimerHandler handler) {
  RTFT_EXPECTS(first >= impl_->now, "timer date lies in the past");
  RTFT_EXPECTS(period.is_positive(), "timer period must be positive");
  Impl& im = *impl_;
  if (im.n_timers == im.timers.size()) im.timers.emplace_back();
  im.timers[im.n_timers] = TimerRec{std::move(handler), period, true, false};
  const TimerHandle handle = im.n_timers++;
  im.push(Ev{first, 0, static_cast<std::uint32_t>(handle), EvKind::kTimer});
  return handle;
}

void Engine::cancel_timer(TimerHandle timer) {
  RTFT_EXPECTS(timer < impl_->n_timers, "timer handle out of range");
  impl_->timers[timer].cancelled = true;
}

void Engine::request_stop(TaskHandle task, StopMode mode,
                          Duration extra_latency) {
  RTFT_EXPECTS(task < impl_->n_tasks, "task handle out of range");
  RTFT_EXPECTS(!extra_latency.is_negative(), "latency must be non-negative");
  TaskRec& t = impl_->tasks[task];
  if (t.stopped) return;
  impl_->record(impl_->now, trace::EventKind::kStopRequested,
                impl_->trace_id(task),
                t.has_current ? t.cur_index : trace::kNoJob, 0);
  impl_->push(Ev{impl_->now + impl_->options.stop_poll_latency + extra_latency,
                 0, static_cast<std::uint32_t>(task), EvKind::kStopEffect,
                 mode});
}

void Engine::inject_overhead(Duration amount) {
  impl_->inject_overhead_now(amount);
  impl_->reschedule();
}

void Engine::run() { impl_->run_until(impl_->options.horizon); }

void Engine::run_until(Instant stop_at) { impl_->run_until(stop_at); }

Instant Engine::now() const { return impl_->now; }
Instant Engine::horizon() const { return impl_->options.horizon; }
std::size_t Engine::task_count() const { return impl_->n_tasks; }

const sched::TaskParams& Engine::params(TaskHandle task) const {
  RTFT_EXPECTS(task < impl_->n_tasks, "task handle out of range");
  return impl_->tasks[task].params;
}

Instant Engine::first_release(TaskHandle task) const {
  RTFT_EXPECTS(task < impl_->n_tasks, "task handle out of range");
  const TaskRec& t = impl_->tasks[task];
  return t.start + t.params.offset;
}

const TaskStats& Engine::stats(TaskHandle task) const {
  RTFT_EXPECTS(task < impl_->n_tasks, "task handle out of range");
  return impl_->tasks[task].stats;
}

JobOutcome Engine::job_outcome(TaskHandle task, std::int64_t job_index) const {
  RTFT_EXPECTS(task < impl_->n_tasks, "task handle out of range");
  const TaskRec& t = impl_->tasks[task];
  RTFT_EXPECTS(job_index >= 0 &&
                   static_cast<std::size_t>(job_index) < t.outcomes.size(),
               "job index not released");
  return t.outcomes[static_cast<std::size_t>(job_index)];
}

bool Engine::job_completed(TaskHandle task, std::int64_t job_index) const {
  RTFT_EXPECTS(task < impl_->n_tasks, "task handle out of range");
  const TaskRec& t = impl_->tasks[task];
  if (job_index < 0 ||
      static_cast<std::size_t>(job_index) >= t.outcomes.size()) {
    return false;
  }
  return t.outcomes[static_cast<std::size_t>(job_index)] ==
         JobOutcome::kCompleted;
}

std::int64_t Engine::jobs_released(TaskHandle task) const {
  RTFT_EXPECTS(task < impl_->n_tasks, "task handle out of range");
  return impl_->tasks[task].stats.released;
}

trace::Sink* Engine::sink() const { return impl_->sink; }

}  // namespace rtft::rt
