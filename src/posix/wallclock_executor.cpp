#include "posix/wallclock_executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/assert.hpp"

namespace rtft::posix {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// Cooperative preemption granularity: a running job re-checks the
/// priority gate this often.
constexpr Duration kSlice = Duration::ms(1);

std::chrono::nanoseconds to_chrono(Duration d) {
  return std::chrono::nanoseconds(d.count());
}

Duration since(SteadyClock::time_point t0) {
  return Duration::ns(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          SteadyClock::now() - t0)
                          .count());
}

}  // namespace

struct WallclockExecutor::Impl {
  explicit Impl(WallclockOptions opts) : options(opts), recorder(1 << 14) {}

  struct TaskRec {
    sched::TaskParams params;
    rt::CostModel cost_model;
    rt::TaskStats stats;
  };

  WallclockOptions options;
  std::vector<TaskRec> tasks;

  // Shared scheduling state. The mutex guards the ready set, the
  // recorder and all counters (CP.50: mutex lives with the data it
  // guards).
  std::mutex mutex;
  std::condition_variable cv;
  /// ready[i] == true when task i has a released, unfinished job.
  std::vector<bool> ready;
  std::atomic<bool> shutting_down{false};

  SteadyClock::time_point start_time;
  trace::Recorder recorder;
  bool ran = false;

  /// True when task `self` outranks every other ready task (FIFO among
  /// equal priorities is approximated by TaskHandle order).
  bool holds_cpu(std::size_t self) const {
    const sched::Priority mine = tasks[self].params.priority;
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      if (j == self || !ready[j]) continue;
      const sched::Priority other = tasks[j].params.priority;
      if (other > mine || (other == mine && j < self)) return false;
    }
    return true;
  }

  /// Trace dates: steady-clock time since run() started, the time base
  /// that also schedules releases and measures responses.
  Instant trace_now() const { return Instant::epoch() + since(start_time); }

  void worker(std::size_t self) {
    TaskRec& task = tasks[self];
    const auto period = to_chrono(task.params.period);
    auto next_release = start_time + to_chrono(task.params.offset);
    std::int64_t job = 0;

    while (!shutting_down.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_until(next_release);
      if (shutting_down.load(std::memory_order_relaxed)) break;
      const auto release = next_release;
      next_release += period;

      Duration remaining =
          task.cost_model ? task.cost_model(job) : task.params.cost;
      {
        std::lock_guard lock(mutex);
        task.stats.released++;
        ready[self] = true;
        recorder.record(trace_now(), trace::EventKind::kJobRelease,
                        static_cast<std::uint32_t>(self), job);
      }
      cv.notify_all();

      bool started = false;
      while (remaining.is_positive() &&
             !shutting_down.load(std::memory_order_relaxed)) {
        {
          // Wait for the CPU token.
          std::unique_lock lock(mutex);
          cv.wait_for(lock, to_chrono(kSlice), [&] {
            return holds_cpu(self) ||
                   shutting_down.load(std::memory_order_relaxed);
          });
          if (shutting_down.load(std::memory_order_relaxed)) break;
          if (!holds_cpu(self)) continue;
          if (!started) {
            started = true;
            recorder.record(trace_now(), trace::EventKind::kJobStart,
                            static_cast<std::uint32_t>(self), job);
          }
        }
        // Execute one slice outside the lock.
        const Duration slice = std::min(remaining, kSlice);
        std::this_thread::sleep_for(to_chrono(slice));
        remaining -= slice;
      }

      {
        std::lock_guard lock(mutex);
        ready[self] = false;
        if (remaining.is_positive()) {
          // Shut down mid-job: count it aborted, not completed.
          task.stats.aborted++;
        } else {
          const Duration r = since(release);
          task.stats.completed++;
          task.stats.last_response = r;
          if (r > task.stats.max_response) task.stats.max_response = r;
          if (r > task.params.deadline) {
            task.stats.missed++;
            recorder.record(trace_now(), trace::EventKind::kDeadlineMiss,
                            static_cast<std::uint32_t>(self), job);
          }
          recorder.record(trace_now(), trace::EventKind::kJobEnd,
                          static_cast<std::uint32_t>(self), job, r.count());
        }
      }
      cv.notify_all();
      ++job;
    }
  }
};

WallclockExecutor::WallclockExecutor(WallclockOptions options)
    : impl_(std::make_unique<Impl>(options)) {
  RTFT_EXPECTS(options.horizon.is_positive(), "horizon must be positive");
}

WallclockExecutor::~WallclockExecutor() = default;

rt::TaskHandle WallclockExecutor::add_task(const sched::TaskParams& params,
                                           rt::CostModel cost) {
  RTFT_EXPECTS(!impl_->ran, "tasks must be added before run()");
  sched::validate_params(params);
  Impl::TaskRec rec;
  rec.params = params;
  rec.cost_model = std::move(cost);
  impl_->tasks.push_back(std::move(rec));
  impl_->ready.push_back(false);
  return impl_->tasks.size() - 1;
}

void WallclockExecutor::run() {
  RTFT_EXPECTS(!impl_->ran, "a WallclockExecutor runs exactly once");
  RTFT_EXPECTS(!impl_->tasks.empty(), "no tasks to run");
  impl_->ran = true;
  impl_->start_time = SteadyClock::now();

  std::vector<std::thread> threads;
  threads.reserve(impl_->tasks.size());
  for (std::size_t i = 0; i < impl_->tasks.size(); ++i) {
    threads.emplace_back([this, i] { impl_->worker(i); });
  }
  std::this_thread::sleep_until(impl_->start_time +
                                to_chrono(impl_->options.horizon));
  impl_->shutting_down.store(true, std::memory_order_relaxed);
  impl_->cv.notify_all();
  for (std::thread& t : threads) t.join();
}

const rt::TaskStats& WallclockExecutor::stats(rt::TaskHandle task) const {
  RTFT_EXPECTS(task < impl_->tasks.size(), "task handle out of range");
  return impl_->tasks[task].stats;
}

const trace::Recorder& WallclockExecutor::recorder() const {
  return impl_->recorder;
}

}  // namespace rtft::posix
