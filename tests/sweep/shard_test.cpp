// The partition/run/merge triad: plan partitioning, shard/merge
// equivalence with the single-process sweep (the API's core contract —
// bit-for-bit, for any shard count and any per-shard worker count),
// shard-file round-trips, and rejection of malformed or mismatched
// shard inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/file.hpp"
#include "sweep/export.hpp"
#include "sweep/sweep.hpp"

namespace rtft::sweep {
namespace {

SweepOptions small_options() {
  SweepOptions opts;
  opts.scenario_count = 60;
  opts.workers = 3;
  opts.base_seed = 2006;
  opts.grid.task_counts = {3, 5};
  opts.grid.utilizations = {0.6, 0.9};
  opts.grid.detector_costs = {Duration::zero(), Duration::us(200)};
  return opts;
}

void expect_same_aggregate(const SweepAggregate& a, const SweepAggregate& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.rta_schedulable, b.rta_schedulable);
  EXPECT_EQ(a.engine_clean, b.engine_clean);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_EQ(a.allowance_feasible, b.allowance_feasible);
  EXPECT_EQ(a.allowance_honored, b.allowance_honored);
  EXPECT_EQ(a.detector_clean, b.detector_clean);
  EXPECT_EQ(a.allowance_sum, b.allowance_sum);
  EXPECT_EQ(a.multicore, b.multicore);
  EXPECT_EQ(a.ff_placed, b.ff_placed);
  EXPECT_EQ(a.fa_placed, b.fa_placed);
  EXPECT_EQ(a.ff_failover_clean, b.ff_failover_clean);
  EXPECT_EQ(a.fa_failover_clean, b.fa_failover_clean);
}

void expect_same_verdict(const ScenarioVerdict& a, const ScenarioVerdict& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.cell, b.cell);
  EXPECT_EQ(a.task_count, b.task_count);
  EXPECT_EQ(a.target_utilization, b.target_utilization);
  EXPECT_EQ(a.actual_utilization, b.actual_utilization);
  EXPECT_EQ(a.detector_cost, b.detector_cost);
  EXPECT_EQ(a.stop_poll_latency, b.stop_poll_latency);
  EXPECT_EQ(a.rta_schedulable, b.rta_schedulable);
  EXPECT_EQ(a.engine_clean, b.engine_clean);
  EXPECT_EQ(a.nominal_misses, b.nominal_misses);
  EXPECT_EQ(a.agreement, b.agreement);
  EXPECT_EQ(a.allowance_feasible, b.allowance_feasible);
  EXPECT_EQ(a.allowance, b.allowance);
  EXPECT_EQ(a.allowance_honored, b.allowance_honored);
  EXPECT_EQ(a.detector_clean, b.detector_clean);
  EXPECT_EQ(a.detector_faults, b.detector_faults);
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_EQ(a.quantum, b.quantum);
  EXPECT_EQ(a.ff_placement_feasible, b.ff_placement_feasible);
  EXPECT_EQ(a.fa_placement_feasible, b.fa_placement_feasible);
  EXPECT_EQ(a.ff_failover_clean, b.ff_failover_clean);
  EXPECT_EQ(a.fa_failover_clean, b.fa_failover_clean);
  EXPECT_EQ(a.ff_missed_tasks, b.ff_missed_tasks);
  EXPECT_EQ(a.fa_missed_tasks, b.fa_missed_tasks);
  EXPECT_EQ(a.ff_lost_jobs, b.ff_lost_jobs);
  EXPECT_EQ(a.fa_lost_jobs, b.fa_lost_jobs);
}

void expect_same_report(const SweepReport& a, const SweepReport& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  expect_same_aggregate(a.totals, b.totals);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    expect_same_aggregate(a.cells[c].agg, b.cells[c].agg);
    EXPECT_EQ(a.cells[c].task_count, b.cells[c].task_count);
    EXPECT_EQ(a.cells[c].utilization, b.cells[c].utilization);
    EXPECT_EQ(a.cells[c].detector_cost, b.cells[c].detector_cost);
    EXPECT_EQ(a.cells[c].stop_poll_latency, b.cells[c].stop_poll_latency);
    EXPECT_EQ(a.cells[c].cores, b.cells[c].cores);
    EXPECT_EQ(a.cells[c].quantum, b.cells[c].quantum);
  }
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    expect_same_verdict(a.verdicts[i], b.verdicts[i]);
  }
}

std::vector<ShardResult> run_split(const SweepPlan& plan, std::uint64_t n) {
  std::vector<ShardResult> shards;
  shards.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    shards.push_back(run_shard(plan.shard(i, n), plan.options()));
  }
  return shards;
}

// ---------------------------------------------------------------------------
// Plan partitioning.
// ---------------------------------------------------------------------------

TEST(SweepPlan, ShardsTileTheIndexSpaceContiguously) {
  const SweepPlan plan(small_options());
  const std::uint64_t count = plan.scenario_count();
  for (const std::uint64_t n : {1u, 2u, 3u, 7u, 59u, 60u, 61u, 200u}) {
    std::uint64_t expected_begin = 0;
    std::uint64_t smallest = count;
    std::uint64_t largest = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const ShardSpec s = plan.shard(i, n);
      EXPECT_EQ(s.index, i);
      EXPECT_EQ(s.shards, n);
      EXPECT_EQ(s.begin, expected_begin) << "n=" << n << " i=" << i;
      EXPECT_LE(s.begin, s.end);
      expected_begin = s.end;
      smallest = std::min(smallest, s.count());
      largest = std::max(largest, s.count());
    }
    EXPECT_EQ(expected_begin, count) << "n=" << n;
    // Balanced to within one scenario.
    EXPECT_LE(largest - smallest, 1u) << "n=" << n;
  }
}

TEST(SweepPlan, SingleShardCoversEverything) {
  const SweepPlan plan(small_options());
  const ShardSpec whole = plan.shard(0, 1);
  EXPECT_EQ(whole.begin, 0u);
  EXPECT_EQ(whole.end, plan.scenario_count());
}

TEST(SweepPlan, RejectsBadShardRequestsAndBadOptions) {
  const SweepPlan plan(small_options());
  EXPECT_THROW((void)plan.shard(0, 0), ContractViolation);
  EXPECT_THROW((void)plan.shard(3, 3), ContractViolation);
  SweepOptions bad = small_options();
  bad.grid.task_counts = {0};
  EXPECT_THROW(SweepPlan{bad}, ContractViolation);
  bad = small_options();
  bad.scenario_count = 0;
  EXPECT_THROW(SweepPlan{bad}, ContractViolation);
}

TEST(SweepPlan, RejectsUtilizationsPastTheCoreCap) {
  // A generated cost is u_i x period in int64 nanoseconds; U = 1e300
  // would overflow it. The plan refuses any target past the 64-core
  // cap, so a shard file whose grid carries one fails to load.
  SweepOptions opts = small_options();
  opts.grid.utilizations = {0.6, 64.0};
  EXPECT_NO_THROW(SweepPlan{opts});
  for (const double bad : {64.5, 1e11, 1e300}) {
    opts.grid.utilizations = {0.6, bad};
    EXPECT_THROW(SweepPlan{opts}, ContractViolation) << bad;
  }

  const SweepPlan plan(small_options());
  std::string forged =
      shard_json(run_shard(plan.shard(0, 6), plan.options()));
  const std::string key = "\"utilizations\":[";
  const std::size_t open = forged.find(key);
  ASSERT_NE(open, std::string::npos);
  const std::size_t first = open + key.size();
  forged.replace(first, forged.find(',', first) - first, "1e300");
  try {
    (void)load_shard_json(forged);
    ADD_FAILURE() << "a shard file sweeping U = 1e300 loaded";
  } catch (const ShardError& e) {
    EXPECT_NE(std::string(e.what()).find("(0, 64]"), std::string::npos)
        << e.what();
  }
}

TEST(SweepPlan, ResolvesZeroWorkersToHardwareConcurrency) {
  SweepOptions opts = small_options();
  opts.workers = 0;
  const SweepPlan plan(opts);
  EXPECT_GT(plan.options().workers, 0u);
}

// ---------------------------------------------------------------------------
// Running one shard.
// ---------------------------------------------------------------------------

TEST(RunShard, ProducesTheCorrespondingSliceOfTheFullSweep) {
  const SweepOptions opts = small_options();
  const SweepReport full = run_sweep(opts);
  const SweepPlan plan(opts);
  const ShardResult s = run_shard(plan.shard(1, 3), plan.options());
  ASSERT_EQ(s.verdicts.size(), s.shard.count());
  for (std::size_t i = 0; i < s.verdicts.size(); ++i) {
    expect_same_verdict(
        s.verdicts[i],
        full.verdicts[static_cast<std::size_t>(s.shard.begin) + i]);
  }
  // The shard's standalone fingerprint is reproducible...
  const ShardResult again = run_shard(plan.shard(1, 3), plan.options());
  EXPECT_EQ(s.fingerprint, again.fingerprint);
  // ...and a full-range shard's equals the sweep fingerprint.
  const ShardResult whole = run_shard(plan.shard(0, 1), plan.options());
  EXPECT_EQ(whole.fingerprint, full.fingerprint);
}

TEST(RunShard, EmptyShardsAreLegalAndEmpty) {
  SweepOptions opts = small_options();
  opts.scenario_count = 3;
  const SweepPlan plan(opts);
  const ShardSpec tail = plan.shard(4, 5);  // 3 scenarios over 5 shards
  EXPECT_EQ(tail.count(), 0u);
  const ShardResult r = run_shard(tail, plan.options());
  EXPECT_EQ(r.totals.total, 0u);
  EXPECT_TRUE(r.verdicts.empty());
  EXPECT_EQ(r.fingerprint, Fingerprint{}.value());  // empty fold
}

TEST(RunShard, RejectsRangesOutsideTheSweep) {
  const SweepOptions opts = small_options();
  ShardSpec bad;
  bad.begin = 10;
  bad.end = opts.scenario_count + 1;
  EXPECT_THROW((void)run_shard(bad, opts), ContractViolation);
  bad.begin = 20;
  bad.end = 10;
  EXPECT_THROW((void)run_shard(bad, opts), ContractViolation);
}

// ---------------------------------------------------------------------------
// Merge equivalence: the API's core contract.
// ---------------------------------------------------------------------------

TEST(ShardMerge, ReproducesTheSingleProcessReportBitForBit) {
  const SweepOptions opts = small_options();
  const SweepReport single = run_sweep(opts);
  for (const std::uint64_t n : {1u, 2u, 3u, 5u}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
      SweepOptions per_shard = opts;
      per_shard.workers = workers;
      const SweepPlan plan(per_shard);
      std::vector<ShardResult> shards = run_split(plan, n);
      // Arrival order must not matter.
      std::reverse(shards.begin(), shards.end());
      const SweepReport merged = merge(shards);
      expect_same_report(merged, single);
    }
  }
}

TEST(ShardMerge, EmptyShardsTyingWithNonEmptyOnesMergeInAnyOrder) {
  // An empty shard [b, b) tiles trivially but ties on begin with a
  // non-empty [b, e); it must merge as a no-op whatever the input order.
  SweepOptions opts = small_options();
  opts.scenario_count = 4;
  const SweepReport single = run_sweep(opts);
  ShardSpec first;
  first.index = 0;
  first.shards = 3;
  first.begin = 0;
  first.end = 2;
  ShardSpec hollow = first;
  hollow.index = 1;
  hollow.begin = 2;
  hollow.end = 2;
  ShardSpec last = first;
  last.index = 2;
  last.begin = 2;
  last.end = 4;
  for (int order = 0; order < 2; ++order) {
    std::vector<ShardResult> shards;
    shards.push_back(run_shard(order == 0 ? hollow : last, opts));
    shards.push_back(run_shard(order == 0 ? last : hollow, opts));
    shards.push_back(run_shard(first, opts));
    expect_same_report(merge(shards), single);
  }
}

TEST(ShardMerge, RejectsGapsOverlapsDuplicatesAndForeignShards) {
  const SweepOptions opts = small_options();
  const SweepPlan plan(opts);
  const std::vector<ShardResult> shards = run_split(plan, 3);

  EXPECT_THROW((void)merge({}), ShardError);

  std::vector<ShardResult> gap = {shards[0], shards[2]};
  EXPECT_THROW((void)merge(gap), ShardError);

  std::vector<ShardResult> duplicate = {shards[0], shards[0], shards[1],
                                        shards[2]};
  EXPECT_THROW((void)merge(duplicate), ShardError);

  std::vector<ShardResult> incomplete = {shards[0], shards[1]};
  EXPECT_THROW((void)merge(incomplete), ShardError);

  SweepOptions foreign_opts = opts;
  foreign_opts.base_seed = opts.base_seed + 1;
  const SweepPlan foreign_plan(foreign_opts);
  std::vector<ShardResult> foreign = {
      shards[0], shards[1],
      run_shard(foreign_plan.shard(2, 3), foreign_plan.options())};
  EXPECT_THROW((void)merge(foreign), ShardError);
}

// ---------------------------------------------------------------------------
// Incremental merging: ShardMerger folds shards as they arrive and must
// reproduce the single-process sweep bit-for-bit, whatever the arrival
// order.
// ---------------------------------------------------------------------------

SweepOptions multicore_options() {
  SweepOptions opts = small_options();
  opts.grid.core_counts = {1, 2};
  opts.grid.quantizer_resolutions = {Duration::ms(1), Duration::us(500)};
  return opts;
}

/// The error finish() raises on a copy of `merger` ("" if it succeeds):
/// it names the shard the fold waits behind, or else the merged prefix.
std::string finish_error(const ShardMerger& merger) {
  ShardMerger copy = merger;
  try {
    (void)copy.finish();
  } catch (const ShardError& e) {
    return e.what();
  }
  return {};
}

TEST(ShardMergerTest, SixShardMixFoldsToTheSingleProcessReportBitForBit) {
  // Six shards with mixed worker counts over a grid exercising the
  // multicore and quantizer axes, folded incrementally in order and in
  // reverse (so every shard but the first waits in the pending buffer):
  // same fingerprint, aggregates and verdicts as the single-process run.
  const SweepOptions opts = multicore_options();
  const SweepReport single = run_sweep(opts);
  const SweepPlan plan(opts);
  std::vector<ShardResult> shards;
  for (std::uint64_t i = 0; i < 6; ++i) {
    SweepOptions per_shard = opts;
    per_shard.workers = 1 + i % 3;
    shards.push_back(run_shard(plan.shard(i, 6), per_shard));
  }
  expect_same_report(merge(shards), single);

  // In order, nothing waits: each shard extends the merged prefix.
  ShardMerger in_order;
  for (std::size_t i = 0; i + 1 < shards.size(); ++i) {
    in_order.add(ShardResult(shards[i]));
    EXPECT_EQ(finish_error(in_order),
              "shards cover only [0, " + std::to_string(shards[i].shard.end) +
                  ") of the sweep's " + std::to_string(opts.scenario_count) +
                  " scenarios");
  }
  in_order.add(ShardResult(shards.back()));
  expect_same_report(in_order.finish(), single);

  // In reverse, each shard waits behind the gap at scenario 0.
  ShardMerger reversed;
  for (std::size_t i = shards.size(); i-- > 1;) {
    reversed.add(ShardResult(shards[i]));
    EXPECT_EQ(finish_error(reversed),
              "shard ranges must tile the index space contiguously: "
              "expected a shard starting at scenario 0, got [" +
                  std::to_string(shards[i].shard.begin) + ", " +
                  std::to_string(shards[i].shard.end) + ")");
  }
  reversed.add(ShardResult(shards[0]));  // closes the gap, drains all.
  EXPECT_EQ(finish_error(reversed), "");
  expect_same_report(reversed.finish(), single);
}

TEST(ShardMergerTest, EmptyShardsFoldInAnyOrder) {
  // A partition wider than the scenario count yields empty [b, b)
  // shards; they must fold as no-ops without wedging the frontier,
  // whether they arrive before or after their non-empty peers.
  SweepOptions opts = small_options();
  opts.scenario_count = 4;
  const SweepReport single = run_sweep(opts);
  const SweepPlan plan(opts);
  const std::vector<ShardResult> shards = run_split(plan, 6);
  for (int order = 0; order < 2; ++order) {
    ShardMerger merger;
    if (order == 0) {
      for (const ShardResult& s : shards) merger.add(ShardResult(s));
    } else {  // all empties first, then the non-empty shards reversed.
      for (const ShardResult& s : shards) {
        if (s.shard.count() == 0) merger.add(ShardResult(s));
      }
      for (std::size_t i = shards.size(); i-- > 0;) {
        if (shards[i].shard.count() != 0) {
          merger.add(ShardResult(shards[i]));
        }
      }
    }
    expect_same_report(merger.finish(), single);
  }
}

TEST(ShardMergerTest, RejectsForeignShardsAndIncompleteCoverage) {
  const SweepOptions opts = small_options();
  const SweepPlan plan(opts);
  const std::vector<ShardResult> shards = run_split(plan, 3);

  ShardMerger empty;
  EXPECT_THROW((void)empty.finish(), ShardError);

  ShardMerger gappy;  // missing the middle shard: coverage fails late.
  gappy.add(ShardResult(shards[0]));
  gappy.add(ShardResult(shards[2]));
  EXPECT_THROW((void)gappy.finish(), ShardError);

  // A shard of a different sweep is rejected on add() and must not
  // poison the merger: the matching shards still merge afterwards.
  SweepOptions foreign_opts = opts;
  foreign_opts.base_seed = opts.base_seed + 1;
  const SweepPlan foreign_plan(foreign_opts);
  ShardMerger merger;
  merger.add(ShardResult(shards[0]));
  EXPECT_THROW(
      merger.add(run_shard(foreign_plan.shard(1, 3), foreign_opts)),
      ShardError);
  merger.add(ShardResult(shards[1]));
  merger.add(ShardResult(shards[2]));
  expect_same_report(merger.finish(), run_sweep(opts));
}

// ---------------------------------------------------------------------------
// Serialization: shards cross process/host boundaries as versioned JSON.
// ---------------------------------------------------------------------------

TEST(ShardJson, RoundTripsThroughSerializeAndLoad) {
  const SweepOptions opts = small_options();
  const SweepPlan plan(opts);
  const ShardResult original = run_shard(plan.shard(1, 3), plan.options());
  const ShardResult loaded = load_shard_json(shard_json(original));
  EXPECT_EQ(loaded.shard.index, original.shard.index);
  EXPECT_EQ(loaded.shard.shards, original.shard.shards);
  EXPECT_EQ(loaded.shard.begin, original.shard.begin);
  EXPECT_EQ(loaded.shard.end, original.shard.end);
  EXPECT_EQ(loaded.fingerprint, original.fingerprint);
  EXPECT_EQ(loaded.elapsed_seconds, original.elapsed_seconds);
  expect_same_aggregate(loaded.totals, original.totals);
  ASSERT_EQ(loaded.verdicts.size(), original.verdicts.size());
  for (std::size_t i = 0; i < loaded.verdicts.size(); ++i) {
    expect_same_verdict(loaded.verdicts[i], original.verdicts[i]);
  }
  // A second generation of serialize -> load is a fixed point.
  EXPECT_EQ(shard_json(loaded), shard_json(original));
}

TEST(ShardJson, LoadedShardsMergeToTheSingleProcessReport) {
  const SweepOptions opts = small_options();
  const SweepReport single = run_sweep(opts);
  const SweepPlan plan(opts);
  std::vector<ShardResult> loaded;
  for (const ShardResult& s : run_split(plan, 4)) {
    loaded.push_back(load_shard_json(shard_json(s)));
  }
  expect_same_report(merge(loaded), single);
}

TEST(ShardJson, RejectsMalformedDocuments) {
  const SweepOptions opts = small_options();
  const SweepPlan plan(opts);
  const std::string good =
      shard_json(run_shard(plan.shard(0, 2), plan.options()));

  EXPECT_THROW((void)load_shard_json(""), ShardError);
  EXPECT_THROW((void)load_shard_json("not json at all"), ShardError);
  EXPECT_THROW((void)load_shard_json("{\"format\": \"rtft-shard\""),
               ShardError);  // truncated
  EXPECT_THROW((void)load_shard_json(good.substr(0, good.size() / 2)),
               ShardError);  // cut mid-document
  EXPECT_THROW((void)load_shard_json("[1,2,3]"), ShardError);  // not an object
  EXPECT_THROW((void)load_shard_json("{}"), ShardError);  // missing fields

  std::string wrong_format = good;
  const std::size_t fpos = wrong_format.find("rtft-shard");
  ASSERT_NE(fpos, std::string::npos);
  wrong_format.replace(fpos, 10, "some-other");
  EXPECT_THROW((void)load_shard_json(wrong_format), ShardError);

  std::string wrong_version = good;
  const std::string version_field =
      "\"version\": " + std::to_string(kShardFormatVersion);
  const std::size_t vpos = wrong_version.find(version_field);
  ASSERT_NE(vpos, std::string::npos);
  wrong_version.replace(
      vpos, version_field.size(),
      "\"version\": " + std::to_string(kShardFormatVersion + 1));
  EXPECT_THROW((void)load_shard_json(wrong_version), ShardError);

  // Earlier versions are refused by their version, not misread. A v2
  // file still carries the retired partitioner and generator ranges; a
  // v3 file carries the allowance granularity and the core-fault
  // fraction, which are now constants.
  std::string v2 = good;
  v2.replace(vpos, version_field.size(), "\"version\": 2");
  std::string v3 = good;
  v3.replace(vpos, version_field.size(), "\"version\": 3");
  const std::size_t policy = v3.find("\"detector_policy\"");
  ASSERT_NE(policy, std::string::npos);
  v3.insert(policy, "\"allowance_granularity_ns\":100000,");
  const std::size_t grid = v3.find(",\"grid\"");
  ASSERT_NE(grid, std::string::npos);
  v3.insert(grid, ",\"core_fault_fraction\":0.5");
  for (const auto& [version, doc] : {std::pair{2, &v2}, std::pair{3, &v3}}) {
    try {
      (void)load_shard_json(*doc);
      ADD_FAILURE() << "a version-" << version << " shard file loaded";
    } catch (const ShardError& e) {
      EXPECT_EQ(std::string(e.what()),
                "unsupported rtft-shard version " + std::to_string(version) +
                    " (this build reads version 4)");
    }
  }
}

/// The ShardError load_shard_json raises on `doc` ("" if it loads).
std::string load_error(const std::string& doc) {
  try {
    (void)load_shard_json(doc);
  } catch (const ShardError& e) {
    return e.what();
  }
  return {};
}

TEST(ShardJson, RefusesDeepNestingWithoutRecursing) {
  // The reader follows the format's fixed shape, so 100,000 nested
  // arrays where a value belongs fail at the first bracket instead of
  // descending (CI runs this under ASan).
  const std::string deep(100000, '[');
  EXPECT_NE(load_error("{\"format\": " + deep), "");
  const SweepPlan plan(small_options());
  std::string doc = shard_json(run_shard(plan.shard(0, 2), plan.options()));
  const std::string key = "\"task_counts\":[";
  const std::size_t at = doc.find(key);
  ASSERT_NE(at, std::string::npos);
  doc.insert(at + key.size(), deep);
  EXPECT_NE(load_error(doc), "");
}

TEST(ShardJson, RequiresMembersInWriterOrder) {
  const SweepPlan plan(small_options());
  const std::string good =
      shard_json(run_shard(plan.shard(0, 2), plan.options()));
  const std::size_t options = good.find("\"options\"");
  const std::size_t shard = good.find("\"shard\"");
  const std::size_t totals = good.find("\"totals\"");
  ASSERT_LT(options, shard);
  ASSERT_LT(shard, totals);
  const std::string expected_options =
      "shard JSON at offset " + std::to_string(options) +
      ": expected member 'options'";

  // Options and shard swapped: each block still ends in ",\n  ".
  const std::string swapped = good.substr(0, options) +
                              good.substr(shard, totals - shard) +
                              good.substr(options, shard - options) +
                              good.substr(totals);
  EXPECT_EQ(load_error(swapped), expected_options);

  // An extra member, at the top level and inside a verdict.
  std::string extra = good;
  extra.insert(options, "\"comment\": \"hi\",\n  ");
  EXPECT_EQ(load_error(extra), expected_options);
  std::string extra_field = good;
  const std::size_t seed = extra_field.find("\"seed\":");
  ASSERT_NE(seed, std::string::npos);
  extra_field.insert(seed, "\"note\":1,");
  EXPECT_EQ(load_error(extra_field),
            "shard JSON at offset " + std::to_string(seed) +
                ": expected member 'seed'");

  // A missing member names the one the writer puts there.
  std::string missing = good;
  const std::size_t workers = missing.find("\"workers\":");
  ASSERT_NE(workers, std::string::npos);
  missing.erase(workers, missing.find(',', workers) + 1 - workers);
  EXPECT_EQ(load_error(missing),
            "shard JSON at offset " + std::to_string(workers) +
                ": expected member 'workers'");
}

TEST(ShardJson, AnElementPastItsCountFailsAtThatElement) {
  const SweepPlan plan(small_options());
  const std::string good =
      shard_json(run_shard(plan.shard(0, 2), plan.options()));
  // Appends a copy of the last element of the array that ends at
  // `close`; returns the copy's offset, past ",\n" and its indent.
  const auto repeat_last = [](std::string& doc, std::size_t close) {
    const std::size_t last = doc.rfind("\n    {", close) + 1;
    doc.insert(close, ",\n" + doc.substr(last, close - last));
    return close + 2 + 4;
  };
  std::string verdicts = good;
  const std::size_t at = repeat_last(
      verdicts, verdicts.find("\n  ],\n  \"fingerprint\""));
  EXPECT_EQ(load_error(verdicts),
            "shard JSON at offset " + std::to_string(at) +
                ": more verdicts than the shard range [0, 30) holds");
  std::string cells = good;
  const std::size_t cell =
      repeat_last(cells, cells.find("\n  ],\n  \"verdicts\""));
  EXPECT_EQ(load_error(cells), "shard JSON at offset " +
                                   std::to_string(cell) +
                                   ": more cells than the sweep grid has");
}

TEST(ShardJson, AReportIsTheWholeRangeShardDocument) {
  const SweepReport report = run_sweep(small_options());
  EXPECT_EQ(report.shard.index, 0u);
  EXPECT_EQ(report.shard.shards, 1u);
  EXPECT_EQ(report.shard.begin, 0u);
  EXPECT_EQ(report.shard.end, report.options.scenario_count);
  const ShardResult loaded = load_shard_json(shard_json(report));
  EXPECT_EQ(loaded.shard.index, 0u);
  EXPECT_EQ(loaded.shard.shards, 1u);
  EXPECT_EQ(loaded.shard.begin, 0u);
  EXPECT_EQ(loaded.shard.end, report.options.scenario_count);
  EXPECT_EQ(loaded.fingerprint, report.fingerprint);
  // Merged alone, it is the report again.
  std::vector<ShardResult> alone;
  alone.push_back(loaded);
  expect_same_report(merge(std::move(alone)), report);
}

TEST(ShardJson, RejectsTamperedVerdictsAndFingerprints) {
  const SweepOptions opts = small_options();
  const SweepPlan plan(opts);
  const std::string good =
      shard_json(run_shard(plan.shard(0, 2), plan.options()));

  // Flip one verdict bit: the declared aggregates no longer match.
  std::string tampered = good;
  const std::size_t epos = tampered.find("\"engine_clean\":true");
  ASSERT_NE(epos, std::string::npos);
  tampered.replace(epos, 19, "\"engine_clean\":false");
  EXPECT_THROW((void)load_shard_json(tampered), ShardError);

  // target_utilization is the one verdict field outside both the
  // fingerprint and the aggregates; the loader re-derives it from the
  // grid instead. Replace the first value token (its %.17g rendering is
  // not a friendly literal) with an exact-but-wrong 0.125.
  std::string bad_target = good;
  const std::string key = "\"target_utilization\":";
  const std::size_t tpos = bad_target.find(key);
  ASSERT_NE(tpos, std::string::npos);
  const std::size_t vstart = tpos + key.size();
  const std::size_t vend = bad_target.find(',', vstart);
  ASSERT_NE(vend, std::string::npos);
  bad_target.replace(vstart, vend - vstart, "0.125");
  EXPECT_THROW((void)load_shard_json(bad_target), ShardError);

  // Corrupt the declared fingerprint: the recomputation catches it.
  std::string bad_fp = good;
  const std::size_t fpos = bad_fp.find("\"fingerprint\": \"");
  ASSERT_NE(fpos, std::string::npos);
  const std::size_t digit = fpos + 16;
  bad_fp[digit] = bad_fp[digit] == '0' ? '1' : '0';
  EXPECT_THROW((void)load_shard_json(bad_fp), ShardError);
}

TEST(ShardJson, ForgedScenarioCountFailsTheMergeNotTheAllocator) {
  // A valid 10-scenario range whose declared scenario_count is raised
  // to 2^62 loads cleanly (nothing in it derives from the count), so
  // the merge must report the missing coverage instead of sizing
  // anything from the declared count.
  const SweepPlan plan(small_options());
  std::string forged =
      shard_json(run_shard(plan.shard(0, 6), plan.options()));
  const std::string count = "\"scenario_count\":60";
  const std::size_t pos = forged.find(count);
  ASSERT_NE(pos, std::string::npos);
  forged.replace(pos, count.size(), "\"scenario_count\":4611686018427387904");
  ShardMerger merger;
  merger.add(load_shard_json(forged));
  EXPECT_THROW((void)merger.finish(), ShardError);
}

TEST(ShardJson, VerdictsAreSizedOnceFromTheRange) {
  // The range sizes the verdicts before the first is read, so a load
  // holds no growth slack: each committed shard document loads with
  // capacity() == size().
  for (const char* name : {"shard-0.json", "shard-1.json", "report.json"}) {
    const ShardResult r = load_shard_json(
        read_file(std::string(RTFT_SWEEP_GOLDEN_DIR) + "/" + name));
    EXPECT_FALSE(r.verdicts.empty()) << name;
    EXPECT_EQ(r.verdicts.capacity(), r.verdicts.size()) << name;
  }
}

TEST(ShardJson, AForgedRangeReservesNoMoreThanTheTextHolds) {
  // A 10-verdict shard whose range (and scenario count) claims 2^62
  // scenarios: the reservation is bounded by the verdicts the rest of
  // the text could hold, so the load fails on the count, not in the
  // allocator.
  const SweepPlan plan(small_options());
  std::string forged =
      shard_json(run_shard(plan.shard(0, 6), plan.options()));
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"\"scenario_count\":60",
                                            "\"scenario_count\":"
                                            "4611686018427387904"},
        {"\"end\":10", "\"end\":4611686018427387904"}}) {
    const std::size_t pos = forged.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    forged.replace(pos, from.size(), to);
  }
  EXPECT_THROW((void)load_shard_json(forged), ShardError);
}

TEST(ShardJson, ForgedGridSizeIsRejectedBeforeAnyAllocation) {
  // Each of the six grid axes repeats its first value 1000 times: a
  // file of a few dozen KB declaring 10^18 cells. The loader must
  // check the cells array before sizing anything from the grid.
  const SweepPlan plan(small_options());
  std::string forged =
      shard_json(run_shard(plan.shard(0, 6), plan.options()));
  for (const std::string axis :
       {"task_counts", "utilizations", "detector_cost_ns",
        "stop_poll_latency_ns", "core_counts", "quantizer_resolution_ns"}) {
    const std::size_t open = forged.find("\"" + axis + "\":[");
    ASSERT_NE(open, std::string::npos) << axis;
    const std::size_t first = open + axis.size() + 4;
    const std::string value =
        forged.substr(first, forged.find_first_of(",]", first) - first);
    std::string values = value;
    for (int i = 1; i < 1000; ++i) values += "," + value;
    forged.replace(first, forged.find(']', first) - first, values);
  }
  EXPECT_THROW((void)load_shard_json(forged), ShardError);
}

TEST(ShardJson, RejectsMergingShardsOfDifferentGrids) {
  SweepOptions a = small_options();
  SweepOptions b = small_options();
  b.grid.utilizations = {0.5, 0.8};
  const SweepPlan plan_a(a);
  const SweepPlan plan_b(b);
  std::vector<ShardResult> mixed;
  mixed.push_back(
      load_shard_json(shard_json(run_shard(plan_a.shard(0, 2), a))));
  mixed.push_back(
      load_shard_json(shard_json(run_shard(plan_b.shard(1, 2), b))));
  EXPECT_THROW((void)merge(mixed), ShardError);
}

}  // namespace
}  // namespace rtft::sweep
