#include "multicore/multi_engine.hpp"

#include <utility>

#include "common/assert.hpp"

namespace rtft::multicore {

void MultiEngine::reset(std::size_t cores, const rt::EngineOptions& base) {
  RTFT_EXPECTS(cores >= 1, "a fleet needs at least one core");
  if (engines_.size() < cores) engines_.resize(cores);
  for (std::size_t i = 0; i < cores; ++i) {
    if (!engines_[i]) engines_[i] = std::make_unique<rt::Engine>();
    engines_[i]->reset(base);
  }
  alive_.assign(cores, true);
  bindings_.clear();
  cores_ = cores;
  failed_core_ = kNoCore;
  placement_feasible_ = false;
  now_ = Instant::epoch();
  horizon_ = base.horizon;
}

void MultiEngine::reserve(std::size_t cores, std::size_t tasks,
                          std::size_t events) {
  if (engines_.size() < cores) engines_.resize(cores);
  for (std::size_t i = 0; i < cores; ++i) {
    if (!engines_[i]) engines_[i] = std::make_unique<rt::Engine>();
    engines_[i]->reserve(tasks, events);
  }
}

rt::Engine& MultiEngine::core(std::size_t i) {
  RTFT_EXPECTS(i < cores_, "core index out of range");
  return *engines_[i];
}

void MultiEngine::add_placed(const sched::TaskSet& ts,
                             const Placement& placement) {
  RTFT_EXPECTS(placement.primary.size() == ts.size() &&
                   placement.backup.size() == ts.size(),
               "placement must cover the task set");
  placement_feasible_ = placement.feasible;
  bindings_.reserve(bindings_.size() + ts.size());
  for (sched::TaskId id = 0; id < ts.size(); ++id) {
    Binding b;
    b.params = ts[id];
    b.primary_core = placement.primary[id];
    b.backup_core = placement.backup[id];
    if (b.primary_core != kNoCore && b.primary_core < cores_) {
      b.primary_handle = engines_[b.primary_core]->add_task(b.params);
      b.placed = true;
    }
    bindings_.push_back(std::move(b));
  }
}

void MultiEngine::run_until(Instant stop_at) {
  RTFT_EXPECTS(stop_at >= now_, "the global clock cannot run backwards");
  RTFT_EXPECTS(stop_at <= horizon_, "cannot run past the fleet horizon");
  // Lockstep: every live core reaches the same global instant before
  // any core passes it (a zero-length segment still flushes).
  for (std::size_t i = 0; i < cores_; ++i) {
    if (alive_[i]) engines_[i]->run_until(stop_at);
  }
  now_ = stop_at;
}

void MultiEngine::run() { run_until(horizon_); }

void MultiEngine::fail_core(std::size_t core) {
  RTFT_EXPECTS(core < cores_, "core index out of range");
  RTFT_EXPECTS(alive_[core], "core already failed");
  alive_[core] = false;
  failed_core_ = core;
  rt::Engine& dead = *engines_[core];
  for (Binding& b : bindings_) {
    if (!b.placed || b.primary_core != core) continue;
    // Jobs released but not yet terminal on the dying core are lost:
    // nobody will observe their deadlines again.
    const std::int64_t released = dead.jobs_released(b.primary_handle);
    for (std::int64_t j = 0; j < released; ++j) {
      if (dead.job_outcome(b.primary_handle, j) == rt::JobOutcome::kPending) {
        ++b.lost_jobs;
      }
    }
    b.primary_misses_at_death = dead.stats(b.primary_handle).missed;
    const std::size_t bc = b.backup_core;
    if (bc == kNoCore || bc >= cores_ || !alive_[bc]) continue;
    // Activate the passive backup: identical parameters, first release
    // at the primary's next release date *strictly after* now — a
    // release exactly at the failure instant already happened on the
    // dying core and is lost with it.
    const Instant fr = dead.first_release(b.primary_handle);
    Instant next = fr;
    if (next <= now_) {
      const std::int64_t k = (now_ - fr) / b.params.period + 1;
      next = fr + b.params.period * k;
    }
    sched::TaskParams replica = b.params;
    replica.name += "#b";
    replica.offset = next.since_epoch();
    b.backup_handle = engines_[bc]->add_task(replica);
    b.failed_over = true;
  }
}

MultiRunReport MultiEngine::run_with_fault(const CoreFaultPlan& plan) {
  if (plan.core != kNoCore && plan.core < cores_ && plan.at >= now_ &&
      plan.at < horizon_) {
    run_until(plan.at);
    fail_core(plan.core);
  }
  run();
  return report();
}

MultiRunReport MultiEngine::report() const {
  MultiRunReport r;
  r.placement_feasible = placement_feasible_;
  r.cores = cores_;
  r.failed_core = failed_core_;
  r.tasks.reserve(bindings_.size());
  for (std::size_t id = 0; id < bindings_.size(); ++id) {
    const Binding& b = bindings_[id];
    TaskFailoverReport t;
    t.task = id;
    t.primary_core = b.primary_core;
    t.backup_core = b.backup_core;
    t.failed_over = b.failed_over;
    t.lost_jobs = b.lost_jobs;
    if (!b.placed) {
      t.outcome = FailoverOutcome::kInfeasiblePlacement;
    } else if (b.primary_core == failed_core_) {
      t.misses = b.primary_misses_at_death;
      if (b.failed_over) {
        t.misses += engines_[b.backup_core]->stats(b.backup_handle).missed;
        t.outcome = t.misses > 0 ? FailoverOutcome::kMissedDuringFailover
                                 : FailoverOutcome::kSurvived;
      } else {
        t.outcome = FailoverOutcome::kInfeasiblePlacement;
      }
    } else {
      // Tasks elsewhere: their misses (if any) come from absorbing the
      // failed core's backups, so they share the fail-over verdict.
      t.misses = engines_[b.primary_core]->stats(b.primary_handle).missed;
      t.outcome = t.misses > 0 ? FailoverOutcome::kMissedDuringFailover
                               : FailoverOutcome::kSurvived;
    }
    r.total_misses += t.misses;
    r.total_lost_jobs += t.lost_jobs;
    if (t.outcome != FailoverOutcome::kSurvived) ++r.missed_tasks;
    r.tasks.push_back(std::move(t));
  }
  r.failover_clean = r.placement_feasible && r.missed_tasks == 0;
  return r;
}

}  // namespace rtft::multicore
