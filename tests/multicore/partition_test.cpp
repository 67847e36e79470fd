// Partitioner properties: deterministic placements, the
// primary/backup invariants both strategies promise, and the central
// contrast — fault-aware placements survive any single core failure by
// construction, first-fit placements demonstrably do not.
#include "multicore/partition.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/assert.hpp"
#include "sched/feasibility.hpp"
#include "support/fault_oracle.hpp"
#include "sweep/generators.hpp"

namespace rtft::multicore {
namespace {

using testsupport::survives_any_single_fault;

sched::TaskSet seeded_set(std::uint64_t seed, std::size_t tasks,
                          double util) {
  RandomTaskSetSpec spec;
  spec.tasks = tasks;
  spec.total_utilization = util;
  return sweep::make_seeded_task_set(seed, spec);
}

sched::TaskParams simple_task(const char* name, int priority, Duration cost,
                              Duration period) {
  sched::TaskParams p;
  p.name = name;
  p.priority = priority;
  p.cost = cost;
  p.period = period;
  p.deadline = period;
  return p;
}

TEST(FirstFitDecreasing, PlacesEveryTaskAndBacksUpOnTheNextCore) {
  const sched::TaskSet ts = seeded_set(1, 8, 2.2);
  const FirstFitDecreasing ffd;
  const Placement p = ffd.place(ts, 4);
  ASSERT_TRUE(p.feasible) << p.reason;
  ASSERT_EQ(p.primary.size(), ts.size());
  ASSERT_EQ(p.backup.size(), ts.size());
  for (sched::TaskId id = 0; id < ts.size(); ++id) {
    ASSERT_LT(p.primary[id], 4u);
    EXPECT_EQ(p.backup[id], (p.primary[id] + 1) % 4);
    EXPECT_NE(p.backup[id], p.primary[id]);
  }
}

TEST(FirstFitDecreasing, SingleCoreHasNoBackups) {
  const sched::TaskSet ts = seeded_set(7, 3, 0.5);
  const FirstFitDecreasing ffd;
  const Placement p = ffd.place(ts, 1);
  ASSERT_TRUE(p.feasible) << p.reason;
  for (sched::TaskId id = 0; id < ts.size(); ++id) {
    EXPECT_EQ(p.primary[id], 0u);
    EXPECT_EQ(p.backup[id], kNoCore);
  }
}

TEST(FirstFitDecreasing, ReportsTheUnplaceableTaskByName) {
  // One task alone over-utilizes any core: placement must fail with the
  // offending task named.
  sched::TaskSet ts;
  ts.add(simple_task("hog", 10, Duration::ms(12), Duration::ms(10)));
  const FirstFitDecreasing ffd;
  const Placement p = ffd.place(ts, 2);
  EXPECT_FALSE(p.feasible);
  EXPECT_NE(p.reason.find("'hog'"), std::string::npos) << p.reason;
  EXPECT_EQ(p.primary[0], kNoCore);
}

TEST(Partitioners, PlacementsAreDeterministic) {
  const sched::TaskSet ts = seeded_set(11, 10, 2.4);
  const FirstFitDecreasing ffd;
  const FaultAware fa;
  for (const Partitioner* strategy :
       {static_cast<const Partitioner*>(&ffd),
        static_cast<const Partitioner*>(&fa)}) {
    const Placement a = strategy->place(ts, 4);
    const Placement b = strategy->place(ts, 4);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.primary, b.primary);
    EXPECT_EQ(a.backup, b.backup);
  }
}

TEST(FaultAware, FeasiblePlacementsSurviveAnySingleFault) {
  // The subsystem's central guarantee, checked against the independent
  // global (failed core x surviving core) RTA sweep over many random
  // sets and fleet widths.
  const FaultAware fa;
  int feasible_seen = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    for (const std::size_t cores : {2u, 3u, 4u}) {
      const double util = 0.45 * static_cast<double>(cores);
      const sched::TaskSet ts = seeded_set(seed, 2 * cores, util);
      const Placement p = fa.place(ts, cores);
      if (!p.feasible) continue;
      ++feasible_seen;
      EXPECT_TRUE(survives_any_single_fault(ts, p, cores))
          << "seed " << seed << ", " << cores << " cores";
      for (sched::TaskId id = 0; id < ts.size(); ++id) {
        EXPECT_NE(p.backup[id], p.primary[id]);
        EXPECT_LT(p.backup[id], cores);
      }
    }
  }
  // The sweep must actually have exercised the guarantee.
  EXPECT_GT(feasible_seen, 20);
}

TEST(FaultAware, SharesTheFirstFitPrimaryPhase) {
  // Identical primary assignment by construction (place_backups keeps
  // first-fit's primaries), so fault-aware can only be infeasible where
  // first-fit also is, or because backup admission failed.
  const FirstFitDecreasing ffd;
  const FaultAware fa;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const sched::TaskSet ts = seeded_set(seed, 8, 2.2);
    const Placement pf = ffd.place(ts, 4);
    const Placement pa = fa.place(ts, 4);
    if (pa.feasible) {
      ASSERT_TRUE(pf.feasible) << "seed " << seed;
      EXPECT_EQ(pa.primary, pf.primary) << "seed " << seed;
    }
  }
}

TEST(FaultAware, PlaceBackupsRefusesAPlacementForAnotherFleet) {
  // First fit on 4 cores puts primaries on cores 2 and 3, which a
  // 2-core backup phase has no slot for: a caller bug, not an index
  // past the end.
  const sched::TaskSet ts = seeded_set(1, 8, 2.2);
  const Placement wide = FirstFitDecreasing{}.place(ts, 4);
  ASSERT_TRUE(wide.feasible) << wide.reason;
  EXPECT_THROW(static_cast<void>(FaultAware{}.place_backups(ts, 2, wide)),
               ContractViolation);
}

TEST(Partitioners, FirstFitAcceptsPlacementsThatDoNotSurviveAFault) {
  // The paired evidence at placement level: at least one random set
  // where first-fit's unchecked backups fail the post-failure RTA sweep
  // while fault-aware's reserved ones pass it.
  const FirstFitDecreasing ffd;
  const FaultAware fa;
  bool contrast_seen = false;
  for (std::uint64_t seed = 1; seed <= 20 && !contrast_seen; ++seed) {
    const sched::TaskSet ts = seeded_set(seed, 8, 2.2);
    const Placement pf = ffd.place(ts, 4);
    const Placement pa = fa.place(ts, 4);
    if (!pf.feasible || !pa.feasible) continue;
    contrast_seen = !survives_any_single_fault(ts, pf, 4) &&
                    survives_any_single_fault(ts, pa, 4);
  }
  EXPECT_TRUE(contrast_seen);
}

TEST(PrimaryUtilization, SumsPerCoreLoads) {
  sched::TaskSet ts;
  ts.add(simple_task("a", 10, Duration::ms(2), Duration::ms(10)));  // 0.2
  ts.add(simple_task("b", 9, Duration::ms(3), Duration::ms(10)));   // 0.3
  ts.add(simple_task("c", 8, Duration::ms(1), Duration::ms(10)));   // 0.1
  Placement p;
  p.feasible = true;
  p.primary = {0, 1, 0};
  p.backup = {1, 0, 1};
  const std::vector<double> u = primary_utilization(ts, p, 2);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_NEAR(u[0], 0.3, 1e-12);
  EXPECT_NEAR(u[1], 0.3, 1e-12);
}

TEST(SurvivesAnySingleFault, RejectsMissingOrColocatedBackups) {
  sched::TaskSet ts;
  ts.add(simple_task("a", 10, Duration::ms(1), Duration::ms(10)));
  Placement p;
  p.feasible = true;
  p.primary = {0};
  p.backup = {kNoCore};  // no backup: fail-over impossible.
  EXPECT_FALSE(survives_any_single_fault(ts, p, 2));
  p.backup = {1};
  EXPECT_TRUE(survives_any_single_fault(ts, p, 2));
  p.feasible = false;  // an infeasible placement never survives.
  EXPECT_FALSE(survives_any_single_fault(ts, p, 2));
  EXPECT_THROW(static_cast<void>(survives_any_single_fault(ts, Placement{}, 2)),
               ContractViolation);  // must cover the task set.
}

}  // namespace
}  // namespace rtft::multicore
