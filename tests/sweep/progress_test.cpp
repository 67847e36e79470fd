#include "sweep/progress.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sweep/sweep.hpp"

namespace rtft::sweep {
namespace {

// ---------------------------------------------------------------------------
// The wire format.
// ---------------------------------------------------------------------------

TEST(ProgressLine, RoundTripsThroughTheParser) {
  for (const ProgressUpdate u : {ProgressUpdate{0, 0}, ProgressUpdate{0, 10},
                                 ProgressUpdate{7, 10},
                                 ProgressUpdate{1000, 1000},
                                 ProgressUpdate{123456789, 987654321}}) {
    const std::string line = progress_line(u);
    EXPECT_EQ(line.back(), '\n');
    ProgressUpdate parsed;
    ASSERT_TRUE(parse_progress_token(line, parsed)) << line;
    EXPECT_EQ(parsed, u);
  }
}

TEST(ProgressToken, AcceptsOnlyTheMachineForm) {
  ProgressUpdate u{99, 99};
  // The human '\r' form a tty-attached worker prints never reaches a
  // coordinator, which reads worker stderr through a pipe.
  EXPECT_FALSE(parse_progress_token("120/120 scenarios (100%)", u));
  EXPECT_FALSE(parse_progress_token("  3/10 scenarios ( 30%)  ", u));
  EXPECT_EQ(u, (ProgressUpdate{99, 99}));
  ASSERT_TRUE(parse_progress_token("progress 5/10", u));
  EXPECT_EQ(u, (ProgressUpdate{5, 10}));
  ASSERT_TRUE(parse_progress_token("  progress 3/10  ", u));
  EXPECT_EQ(u, (ProgressUpdate{3, 10}));
}

TEST(ProgressToken, RejectsNoiseAndMalformedFractions) {
  ProgressUpdate u{99, 99};
  // Arbitrary stderr noise must not parse — a worker's diagnostics
  // share the stream with the protocol.
  EXPECT_FALSE(parse_progress_token("", u));
  EXPECT_FALSE(parse_progress_token("warning: /tmp/x.json unreadable", u));
  EXPECT_FALSE(parse_progress_token("5/10", u));  // no keyword: ambiguous.
  EXPECT_FALSE(parse_progress_token("progress", u));
  EXPECT_FALSE(parse_progress_token("progress 5", u));
  EXPECT_FALSE(parse_progress_token("progress 5/10/15", u));
  EXPECT_FALSE(parse_progress_token("progress a/b", u));
  EXPECT_FALSE(parse_progress_token("progress -1/10", u));
  EXPECT_FALSE(parse_progress_token("progress 11/10", u));  // done > total.
  EXPECT_FALSE(parse_progress_token(
      "progress 99999999999999999999/99999999999999999999", u));
  // A rejected token must leave the output untouched.
  EXPECT_EQ(u, (ProgressUpdate{99, 99}));
}

TEST(ProgressParser, SplitsOnBothSeparatorsAcrossChunkBoundaries) {
  ProgressParser parser;
  std::vector<ProgressUpdate> seen;
  const auto sink = [&](const ProgressUpdate& u) { seen.push_back(u); };
  // One byte at a time: the parser must buffer partial tokens across
  // arbitrarily small reads (exactly what a pipe delivers).
  const std::string stream =
      "progress 1/4\nnoise line\rprogress 2/4\r2/4 scenarios ( 50%)\r"
      "progress 3/4\n";
  for (const char c : stream) parser.feed(std::string_view(&c, 1), sink);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (ProgressUpdate{1, 4}));
  EXPECT_EQ(seen[1], (ProgressUpdate{2, 4}));
  EXPECT_EQ(seen[2], (ProgressUpdate{3, 4}));
  // An unterminated final token is flushed by finish() (EOF).
  parser.feed("progress 4/4", sink);
  ASSERT_EQ(seen.size(), 3u);
  parser.finish(sink);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[3], (ProgressUpdate{4, 4}));
}

// ---------------------------------------------------------------------------
// The run_shard progress contract: serialized, exactly sequential.
// ---------------------------------------------------------------------------

TEST(RunShardProgress, SerializedAndExactlySequentialUnderManyWorkers) {
  SweepOptions opts;
  opts.scenario_count = 120;
  opts.workers = 8;  // plenty of overlap pressure on the callback.
  opts.base_seed = 2006;
  opts.grid.task_counts = {3};
  opts.grid.utilizations = {0.6};

  std::vector<std::uint64_t> seen;  // unguarded on purpose: the
                                    // serialization contract is the lock.
  std::atomic<int> inflight{0};
  std::atomic<bool> overlapped{false};
  opts.on_progress = [&](std::uint64_t done, std::uint64_t total) {
    if (inflight.fetch_add(1, std::memory_order_acq_rel) != 0) {
      overlapped.store(true, std::memory_order_relaxed);
    }
    EXPECT_EQ(total, 120u);
    seen.push_back(done);
    inflight.fetch_sub(1, std::memory_order_acq_rel);
  };

  const SweepPlan plan(opts);
  const ShardResult result = run_shard(plan.shard(0, 1), plan.options());
  EXPECT_EQ(result.totals.total, 120u);

  // No two invocations may overlap...
  EXPECT_FALSE(overlapped.load());
  // ...and the counts arrive exactly sequential: 1, 2, ..., total — not
  // merely monotone. (The old relaxed-atomic implementation could
  // deliver 2 before 1 under exactly this many-worker load.)
  ASSERT_EQ(seen.size(), 120u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i + 1);
  }
}

TEST(RunShardProgress, EmptyShardMakesNoCalls) {
  SweepOptions opts;
  opts.scenario_count = 3;
  opts.workers = 2;
  opts.grid.task_counts = {3};
  opts.grid.utilizations = {0.6};
  int calls = 0;
  opts.on_progress = [&](std::uint64_t, std::uint64_t) { ++calls; };
  const SweepPlan plan(opts);
  // 8-way split of 3 scenarios: shard 7 is empty.
  const ShardResult result = run_shard(plan.shard(7, 8), plan.options());
  EXPECT_EQ(result.totals.total, 0u);
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace rtft::sweep
