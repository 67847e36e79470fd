// Per-job actual-cost specification for the engine.
//
// The paper injects temporal faults by making a specific job consume
// more CPU than its declared cost (§6: "a cost overrun was voluntarily
// added"). Originally every task carried a std::function cost model and
// paid a type-erased call per job; at sweep scale that call — plus the
// allocation its captures need — is measurable against an inner loop
// that is otherwise branch-and-add.
//
// CostSpec flattens the common cases into an enum plus parameters the
// engine resolves inline:
//
//   kNominal           — the task's declared cost, every job.
//   kFixedOverrunAtJob — one job's cost deviates by a fixed delta
//                        (the paper's injection; what the fault model
//                        and the sweep emit).
//   kCustom            — an arbitrary std::function, for costs a flat
//                        rule cannot state: the polling server sizes
//                        each poll from its live queue, and the RTSJ
//                        facade's setCostModel and multi-job fault plans
//                        resolve through one.
//
// Anything callable as Duration(std::int64_t) converts implicitly (to
// kCustom), so call sites can pass lambdas to Engine::add_task.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/time.hpp"

namespace rtft::rt {

/// Actual execution cost of each job. The default (unset) model returns
/// the task's nominal cost; fault injection wraps it (§6: "a cost overrun
/// was voluntarily added").
using CostModel = std::function<Duration(std::int64_t job_index)>;

/// Which rule a CostSpec applies (see file comment).
enum class CostKind : std::uint8_t {
  kNominal,
  kFixedOverrunAtJob,
  kCustom,
};

/// Flat per-job cost rule; resolve() is the engine's only entry point.
struct CostSpec {
  CostKind kind = CostKind::kNominal;
  std::int64_t job = 0;       ///< kFixedOverrunAtJob: the deviating job.
  Duration extra;             ///< kFixedOverrunAtJob: the delta (any sign).
  CostModel custom;           ///< kCustom.

  CostSpec() = default;

  /// Implicit conversion from anything callable as Duration(int64) —
  /// including CostModel itself — so add_task keeps accepting lambdas.
  /// An empty CostModel means "nominal", exactly as before.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, CostSpec> &&
                std::is_constructible_v<CostModel, F&&>>>
  CostSpec(F&& fn)  // NOLINT(google-explicit-constructor)
      : kind(CostKind::kCustom), custom(std::forward<F>(fn)) {
    if (!custom) kind = CostKind::kNominal;
  }

  /// The task's declared cost, every job.
  [[nodiscard]] static CostSpec nominal() { return CostSpec{}; }

  /// Job `job` costs nominal + `extra` (floored at 1 ns — a job always
  /// does some work); every other job is nominal. Matches the fault
  /// model's closure semantics bit for bit.
  [[nodiscard]] static CostSpec fixed_overrun(std::int64_t job,
                                              Duration extra) {
    CostSpec s;
    s.kind = CostKind::kFixedOverrunAtJob;
    s.job = job;
    s.extra = extra;
    return s;
  }

  /// True when resolve() can never deviate from the nominal cost.
  [[nodiscard]] bool is_nominal() const {
    return kind == CostKind::kNominal;
  }

  /// Actual cost of job `job_index` for a task of declared cost
  /// `nominal_cost`. Always positive.
  [[nodiscard]] Duration resolve(Duration nominal_cost,
                                 std::int64_t job_index) const {
    switch (kind) {
      case CostKind::kNominal:
        return nominal_cost;
      case CostKind::kFixedOverrunAtJob: {
        if (job_index != job) return nominal_cost;
        const Duration c = nominal_cost + extra;
        return c < Duration::ns(1) ? Duration::ns(1) : c;
      }
      case CostKind::kCustom: {
        const Duration c = custom(job_index);
        RTFT_EXPECTS(c.is_positive(), "cost model must return positive costs");
        return c;
      }
    }
    return nominal_cost;  // unreachable; keeps -Wreturn-type quiet.
  }
};

}  // namespace rtft::rt
