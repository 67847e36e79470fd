#include "sched/response_time.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/assert.hpp"
#include "common/math.hpp"

namespace rtft::sched {

PriorityView::PriorityView(const TaskSet& ts) : id_(ts.size()) {
  std::iota(id_.begin(), id_.end(), TaskId{0});
  index(ts);
}

void PriorityView::assign(const TaskSet& ts, std::span<const TaskId> ids) {
  id_.assign(ids.begin(), ids.end());
  index(ts);
}

void PriorityView::index(const TaskSet& ts) {
  const std::vector<TaskParams>& tasks = ts.tasks();
  for (const TaskId id : id_) {
    RTFT_EXPECTS(id < tasks.size(), "task id out of range");
  }
  std::sort(id_.begin(), id_.end(), [&](TaskId a, TaskId b) {
    const Priority pa = tasks[a].priority;
    const Priority pb = tasks[b].priority;
    return pa != pb ? pa > pb : a < b;
  });
  const std::size_t n = id_.size();
  cost_.resize(n);
  period_.resize(n);
  deadline_.resize(n);
  end_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    const TaskParams& t = tasks[id_[p]];
    cost_[p] = t.cost.count();
    period_[p] = t.period.count();
    deadline_[p] = t.deadline.count();
  }
  // A run of equal priorities shares one interferer prefix, ending at the
  // first lower priority.
  for (std::size_t p = n; p-- > 0;) {
    const bool tied =
        p + 1 < n && tasks[id_[p + 1]].priority == tasks[id_[p]].priority;
    end_[p] = tied ? end_[p + 1] : p + 1;
  }
}

std::size_t PriorityView::position(TaskId id) const {
  const auto it = std::find(id_.begin(), id_.end(), id);
  RTFT_EXPECTS(it != id_.end(), "task id not in the view");
  return static_cast<std::size_t>(it - id_.begin());
}

RtaResult busy_period(const PriorityView& view, std::size_t pos,
                      const RtaOptions& opts, const Inflation& extra,
                      bool deadline_cap) {
  RTFT_EXPECTS(pos < view.size(), "view position out of range");
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  const std::int64_t* const period = view.period_.data();
  const std::int64_t* const own_cost = view.cost_.data();
  const std::int64_t all = extra.all.count();
  const std::size_t one_pos = extra.pos;
  const std::int64_t one = extra.one.count();
  const auto cost = [&](std::size_t j) {
    return own_cost[j] + all + (j == one_pos ? one : 0);
  };
  const std::size_t end = view.end_[pos];
  const std::int64_t c = cost(pos);
  const std::int64_t t = period[pos];
  const std::int64_t d = view.deadline_[pos];

  // The exact level-load test: the task first, then its interferers.
  bool load_tested = false;
  const auto overloaded = [&] {
    load_tested = true;
    std::vector<Duration> costs{Duration::ns(c)};
    std::vector<Duration> periods{Duration::ns(t)};
    for (std::size_t j = 0; j < end; ++j) {
      if (j == pos) continue;
      costs.push_back(Duration::ns(cost(j)));
      periods.push_back(Duration::ns(period[j]));
    }
    return compare_load_to_one(costs, periods) > 0;
  };

  RtaResult result;
  // Every exit names its reason. An overload forgets the jobs examined:
  // a load test in front of the analysis would have examined none.
  const auto stop = [&result](RtaStop why) {
    if (why == RtaStop::kOverload) result = RtaResult{};
    result.bounded = why == RtaStop::kClosed;
    result.stop = why;
    return std::move(result);
  };
  std::int64_t budget = opts.max_iterations;
  std::int64_t completion = 0;  // R(q-1)
  for (std::int64_t q = 0; q < opts.max_jobs; ++q) {
    // Iterates past `window` push work onto job q+1; iterates past `cap`
    // miss job q's deadline. A bound beyond int64 is never reached, so
    // work past int64 is a miss only under a cap that int64 holds.
    const std::int64_t window = checked_mul(q + 1, t).value_or(kNever);
    std::int64_t cap = kNever;
    if (deadline_cap) {
      if (const auto release = checked_mul(q, t)) {
        cap = checked_add(*release, d).value_or(kNever);
      }
    }
    const RtaStop past_int64 =
        cap < kNever ? RtaStop::kMiss : RtaStop::kGuardRail;
    const auto base = checked_mul(q + 1, c);
    if (!base) return stop(past_int64);
    // Seed with the previous job's completion (a lower bound on this
    // job's, which accelerates convergence) or the base.
    std::int64_t r = std::max(completion, *base);
    for (;;) {
      if (r > cap) return stop(RtaStop::kMiss);
      if (r > window && !load_tested && overloaded()) {
        return stop(RtaStop::kOverload);
      }
      if (budget-- <= 0) return stop(RtaStop::kGuardRail);
      std::int64_t next = *base;
      bool overflow = false;
      for (std::size_t j = 0; j < end && next <= cap && !overflow; ++j) {
        if (j == pos) continue;
        const std::int64_t releases =
            r / period[j] + (r % period[j] != 0 ? 1 : 0);
        std::int64_t work = 0;
        overflow = __builtin_mul_overflow(releases, cost(j), &work) ||
                   __builtin_add_overflow(next, work, &next);
      }
      if (overflow) {
        // Past int64: uncapped, unbounded through the load test when it
        // is still owed.
        if (!deadline_cap && !load_tested && overloaded()) {
          return stop(RtaStop::kOverload);
        }
        return stop(past_int64);
      }
      if (next == r) break;
      RTFT_ASSERT(next > r, "fixed-point iterate must be monotone");
      r = next;
    }
    completion = r;
    const Duration response = Duration::ns(r - q * t);
    result.jobs_examined = q + 1;
    result.last_completion = Duration::ns(r);
    if (opts.record_jobs && result.jobs.size() < opts.max_recorded_jobs) {
      result.jobs.push_back(JobResponse{q, Duration::ns(r), response});
    }
    if (q == 0 || response > result.wcrt) {
      result.wcrt = response;
      result.worst_job = q;
    }
    // Busy period closes: this job completed within its own period slot,
    // so it exerts no carry-in on the next job.
    if (r <= window) return stop(RtaStop::kClosed);
  }
  return stop(RtaStop::kGuardRail);  // max_jobs exhausted
}

RtaResult response_time(const TaskSet& ts, TaskId id, const RtaOptions& opts) {
  RTFT_EXPECTS(id < ts.size(), "task id out of range");
  const PriorityView view(ts);
  return busy_period(view, view.position(id), opts);
}

std::optional<Duration> classic_response_time(const TaskSet& ts, TaskId id,
                                              const RtaOptions& opts) {
  RTFT_EXPECTS(id < ts.size(), "task id out of range");
  const PriorityView view(ts);
  return classic_response_time(view, view.position(id), opts);
}

std::optional<Duration> classic_response_time(const PriorityView& view,
                                              std::size_t pos,
                                              const RtaOptions& opts,
                                              const Inflation& extra) {
  // Job 0 alone: its fixed point is the answer whether or not it closes
  // the busy period.
  RtaOptions job0 = opts;
  job0.max_jobs = 1;
  job0.record_jobs = false;
  const RtaResult r = busy_period(view, pos, job0, extra);
  if (r.jobs_examined == 0) return std::nullopt;
  return r.wcrt;
}

std::vector<RtaResult> response_times(const TaskSet& ts,
                                      const RtaOptions& opts) {
  const PriorityView view(ts);
  std::vector<RtaResult> out(ts.size());
  for (std::size_t pos = 0; pos < view.size(); ++pos) {
    out[view.id(pos)] = busy_period(view, pos, opts);
  }
  return out;
}

}  // namespace rtft::sched
