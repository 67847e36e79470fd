#include "sched/feasibility.hpp"

#include <sstream>

#include "common/strings.hpp"

namespace rtft::sched {

FeasibilityReport analyze(const TaskSet& ts, const RtaOptions& opts) {
  FeasibilityReport report;
  report.load = load_test(ts);
  report.utilization = ts.utilization();
  const std::vector<RtaResult> rta = response_times(ts, opts);
  report.tasks.reserve(ts.size());

  bool all_ok = true;
  for (TaskId i = 0; i < ts.size(); ++i) {
    TaskVerdict v;
    v.id = i;
    v.bounded = rta[i].bounded;
    v.wcrt = rta[i].wcrt;
    v.meets_deadline = v.bounded && v.wcrt <= ts[i].deadline;
    all_ok = all_ok && v.meets_deadline;
    report.tasks.push_back(v);
  }
  report.feasible = all_ok && report.load != LoadVerdict::kAboveOne;
  return report;
}

bool is_feasible(const TaskSet& ts, const RtaOptions& opts) {
  return is_feasible(PriorityView(ts), opts);
}

bool is_feasible(const PriorityView& view, const RtaOptions& opts,
                 const Inflation& extra) {
  // No separate load test: a total load above 1 is the lowest level's
  // load, whose busy period then never closes. Lowest priority first, the
  // likeliest to miss, so an infeasible probe usually stops after one
  // capped analysis.
  for (std::size_t pos = view.size(); pos-- > 0;) {
    if (!busy_period(view, pos, opts, extra, true).bounded) return false;
  }
  return true;
}

std::string FeasibilityReport::summary(const TaskSet& ts) const {
  std::ostringstream out;
  out << "load U = " << format_fixed(utilization, 4);
  switch (load) {
    case LoadVerdict::kAboveOne:
      out << " (> 1: infeasible)";
      break;
    case LoadVerdict::kExactlyOne:
      out << " (= 1: boundary)";
      break;
    case LoadVerdict::kBelowOne:
      out << " (< 1)";
      break;
  }
  out << '\n';
  for (const TaskVerdict& v : tasks) {
    out << "  " << pad_right(ts[v.id].name, 12) << " WCRT=";
    if (v.bounded) {
      out << pad_left(to_string(v.wcrt), 10) << "  D="
          << pad_left(to_string(ts[v.id].deadline), 10) << "  "
          << (v.meets_deadline ? "ok" : "MISS");
    } else {
      out << " unbounded  MISS";
    }
    out << '\n';
  }
  out << (feasible ? "FEASIBLE" : "NOT FEASIBLE");
  return out.str();
}

bool FeasibilityAnalysis::add(const TaskParams& params) {
  TaskSet candidate = set_;
  candidate.add(params);
  if (!is_feasible(candidate, opts_)) return false;
  set_ = std::move(candidate);
  return true;
}

bool FeasibilityAnalysis::remove(std::string_view name) {
  if (!set_.contains(name)) return false;
  set_ = set_.without(set_.find(name));
  return true;
}

}  // namespace rtft::sched
