#include "core/treatment.hpp"

#include "common/assert.hpp"
#include "sched/feasibility.hpp"
#include "sched/response_time.hpp"

namespace rtft::core {

std::string_view to_string(TreatmentPolicy policy) {
  switch (policy) {
    case TreatmentPolicy::kNoDetection: return "no-detection";
    case TreatmentPolicy::kDetectOnly: return "detect-only";
    case TreatmentPolicy::kInstantStop: return "instant-stop";
    case TreatmentPolicy::kEquitableAllowance: return "equitable-allowance";
    case TreatmentPolicy::kSystemAllowance: return "system-allowance";
    case TreatmentPolicy::kSystemAllowanceSound:
      return "system-allowance-sound";
  }
  return "unknown";
}

TreatmentPolicy treatment_policy_from_string(std::string_view name) {
  if (name == "no-detection") return TreatmentPolicy::kNoDetection;
  if (name == "detect-only") return TreatmentPolicy::kDetectOnly;
  if (name == "instant-stop") return TreatmentPolicy::kInstantStop;
  if (name == "equitable-allowance") {
    return TreatmentPolicy::kEquitableAllowance;
  }
  if (name == "system-allowance") return TreatmentPolicy::kSystemAllowance;
  if (name == "system-allowance-sound") {
    return TreatmentPolicy::kSystemAllowanceSound;
  }
  RTFT_EXPECTS(false,
               "unknown treatment policy '" + std::string(name) + "'");
  return TreatmentPolicy::kNoDetection;  // unreachable
}

TreatmentPlan make_treatment_plan(const sched::TaskSet& ts,
                                  TreatmentPolicy policy,
                                  const sched::AllowanceOptions& opts) {
  TreatmentPlan plan;
  plan.policy = policy;
  if (policy == TreatmentPolicy::kNoDetection) return plan;

  plan.detects = true;
  plan.stops = policy != TreatmentPolicy::kDetectOnly;

  const std::vector<sched::RtaResult> rta = sched::response_times(ts, opts.rta);
  plan.nominal_wcrt.reserve(ts.size());
  for (sched::TaskId i = 0; i < ts.size(); ++i) {
    RTFT_EXPECTS(rta[i].bounded && rta[i].wcrt <= ts[i].deadline,
                 "treatment thresholds need a feasible task set; '" +
                     ts[i].name + "' is not schedulable");
    plan.nominal_wcrt.push_back(rta[i].wcrt);
  }

  switch (policy) {
    case TreatmentPolicy::kDetectOnly:
    case TreatmentPolicy::kInstantStop:
      plan.thresholds = plan.nominal_wcrt;
      break;
    case TreatmentPolicy::kEquitableAllowance: {
      const sched::EquitableAllowance a = sched::equitable_allowance(ts, opts);
      RTFT_ASSERT(a.feasible_at_zero, "feasibility checked above");
      plan.allowance = a.allowance;
      plan.thresholds = a.inflated_wcrt;
      break;
    }
    case TreatmentPolicy::kSystemAllowance:
    case TreatmentPolicy::kSystemAllowanceSound: {
      const sched::SystemAllowance s = sched::system_allowance(ts, opts);
      RTFT_ASSERT(s.feasible_at_zero, "feasibility checked above");
      plan.allowance = s.budget;
      plan.thresholds = policy == TreatmentPolicy::kSystemAllowance
                            ? s.stop_thresholds
                            : s.sound_stop_thresholds;
      break;
    }
    case TreatmentPolicy::kNoDetection:
      break;  // handled above
  }
  return plan;
}

TreatmentPlan make_treatment_plan_or_degrade(
    const sched::TaskSet& ts, TreatmentPolicy policy, bool feasible,
    const sched::AllowanceOptions& opts) {
  if (policy != TreatmentPolicy::kNoDetection && !feasible) {
    TreatmentPlan plan;
    plan.policy = policy;
    return plan;
  }
  return make_treatment_plan(ts, policy, opts);
}

}  // namespace rtft::core
