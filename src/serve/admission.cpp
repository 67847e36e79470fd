#include "serve/admission.hpp"

#include <sstream>

namespace rtft::serve {

const char* to_cstring(AnalysisTier tier) {
  switch (tier) {
    case AnalysisTier::kExact:
      return "exact";
    case AnalysisTier::kRtaOnly:
      return "rta-only";
    case AnalysisTier::kBound:
      return "bound";
  }
  return "?";
}

const char* to_cstring(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kAnswered:
      return "answered";
    case ResponseStatus::kRejectedFull:
      return "rejected-full";
    case ResponseStatus::kShedDeadline:
      return "shed-deadline";
    case ResponseStatus::kInvalidRequest:
      return "invalid-request";
    case ResponseStatus::kWorkerError:
      return "worker-error";
    case ResponseStatus::kShutdown:
      return "shutdown";
  }
  return "?";
}

const char* to_cstring(AdmissionVerdict verdict) {
  switch (verdict) {
    case AdmissionVerdict::kAdmit:
      return "admit";
    case AdmissionVerdict::kReject:
      return "reject";
    case AdmissionVerdict::kInconclusive:
      return "inconclusive";
  }
  return "?";
}

std::string ServiceMetrics::summary() const {
  std::ostringstream os;
  os << "admission service\n";
  os << "  submitted          " << submitted << "\n";
  os << "  accepted           " << accepted << "\n";
  os << "  rejected (full)    " << rejected_full << "\n";
  os << "  rejected (stop)    " << rejected_shutdown << "\n";
  os << "  shed (deadline)    " << shed_deadline << "\n";
  os << "  invalid            " << invalid << "\n";
  os << "  worker errors      " << worker_errors << "\n";
  os << "  answered           " << answered << " (exact " << answered_by_tier[0]
     << ", rta-only " << answered_by_tier[1] << ", bound "
     << answered_by_tier[2] << ")\n";
  os << "  cache              " << cache_hits << " hits, " << cache_misses
     << " misses, " << cache_evictions << " evictions, "
     << cache_corruption_detected << " corruptions caught\n";
  os << "  ladder             " << degrade_steps << " down, " << recover_steps
     << " up, now " << to_cstring(current_tier) << "\n";
  os << "  faults injected    " << faults_injected << " (" << clock_skips
     << " clock skips)\n";
  os << "  cross-check        " << cross_check_disagreements
     << " disagreements, " << cross_check_skips << " skips\n";
  os << "  max queue depth    " << max_queue_depth << "\n";
  return os.str();
}

}  // namespace rtft::serve
