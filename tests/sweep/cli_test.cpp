#include "sweep/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/treatment.hpp"
#include "sweep/sweep.hpp"

namespace rtft::sweep::cli {
namespace {

/// Runs `f` and returns the ArgError message it must throw.
template <typename F>
std::string arg_error_of(F&& f) {
  try {
    std::forward<F>(f)();
  } catch (const ArgError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected ArgError";
  return {};
}

// ---------------------------------------------------------------------------
// Scalar parsing.
// ---------------------------------------------------------------------------

TEST(ParseU64, AcceptsTheWholeRequestedRange) {
  EXPECT_EQ(parse_u64("--x", "0", 0, 10), 0u);
  EXPECT_EQ(parse_u64("--x", "10", 0, 10), 10u);
  EXPECT_EQ(parse_u64("--x", "9223372036854775807", 0,
                      9223372036854775807ULL),
            9223372036854775807ULL);
}

TEST(ParseU64, RejectsGarbageOverflowAndOutOfRange) {
  // Each rejection names the flag and echoes the offending value.
  // (Surrounding whitespace is trimmed by parse_int64, so " 1" is fine;
  // everything below is genuinely malformed or out of range.)
  for (const char* bad :
       {"", "x", "12x", "1.5", "-1", "+1", "99999999999999999999"}) {
    const std::string msg =
        arg_error_of([&] { (void)parse_u64("--scenarios", bad, 0, 100); });
    EXPECT_NE(msg.find("--scenarios"), std::string::npos) << msg;
    EXPECT_NE(msg.find(bad), std::string::npos) << msg;
  }
  EXPECT_THROW((void)parse_u64("--x", "11", 0, 10), ArgError);
  EXPECT_THROW((void)parse_u64("--x", "0", 1, 10), ArgError);
}

TEST(ParsePositiveDouble, RejectsNonFiniteAndNonPositive) {
  EXPECT_DOUBLE_EQ(parse_positive_double("--util", "0.85"), 0.85);
  for (const char* bad : {"", "x", "0", "-0.5", "nan", "inf"}) {
    EXPECT_THROW((void)parse_positive_double("--util", bad), ArgError)
        << bad;
  }
}

// ---------------------------------------------------------------------------
// --shard I/N.
// ---------------------------------------------------------------------------

TEST(ParseShardRequest, AcceptsValidRequests) {
  const ShardRequest r = parse_shard_request("2/8");
  EXPECT_EQ(r.index, 2u);
  EXPECT_EQ(r.count, 8u);
  EXPECT_EQ(parse_shard_request("0/1").count, 1u);
}

TEST(ParseShardRequest, RejectsEachDefectWithItsOwnMessage) {
  // Non-numeric / malformed / overflowing text.
  for (const char* bad :
       {"", "3", "a/b", "1/2/3", "-1/3", "1/-3", "1.5/3",
        "99999999999999999999/3", "1/99999999999999999999"}) {
    const std::string msg =
        arg_error_of([&] { (void)parse_shard_request(bad); });
    EXPECT_NE(msg.find("--shard"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unsigned decimal"), std::string::npos) << msg;
  }
  // N == 0 and I >= N are distinct, actionable complaints.
  EXPECT_NE(arg_error_of([] { (void)parse_shard_request("0/0"); })
                .find("N must be >= 1"),
            std::string::npos);
  for (const char* bad : {"3/3", "4/3"}) {
    EXPECT_NE(arg_error_of([&] { (void)parse_shard_request(bad); })
                  .find("below the count"),
              std::string::npos)
        << bad;
  }
}

// ---------------------------------------------------------------------------
// Flag application and its inverse, worker_argv.
// ---------------------------------------------------------------------------

/// Applies argv pairs (skipping a leading binary path) the way the CLIs
/// do; returns the flags apply_sweep_flag did not claim.
std::vector<std::string> reparse(const std::vector<std::string>& argv,
                                 SweepOptions& opts) {
  std::vector<std::string> unclaimed;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const auto value = [&]() -> std::string {
      EXPECT_LT(i + 1, argv.size()) << argv[i] << " missing its value";
      return argv[++i];
    };
    if (!apply_sweep_flag(argv[i], value, opts)) {
      unclaimed.push_back(argv[i]);
      // --shard and --emit-shard carry values; skip them too.
      if (argv[i] == "--shard" || argv[i] == "--emit-shard") ++i;
    }
  }
  return unclaimed;
}

TEST(ApplySweepFlag, ClaimsOnlySweepFlagsAndRejectsBadValues) {
  SweepOptions opts;
  EXPECT_FALSE(apply_sweep_flag(
      "--merge", [] { return std::string(); }, opts));
  EXPECT_FALSE(apply_sweep_flag(
      "--not-a-flag", [] { return std::string(); }, opts));
  EXPECT_TRUE(apply_sweep_flag(
      "--scenarios", [] { return std::string("64"); }, opts));
  EXPECT_EQ(opts.scenario_count, 64u);
  EXPECT_THROW(apply_sweep_flag(
                   "--scenarios", [] { return std::string("0"); }, opts),
               ArgError);
  EXPECT_THROW(apply_sweep_flag(
                   "--workers", [] { return std::string("5000"); }, opts),
               ArgError);  // kMaxWorkers cap.
  EXPECT_THROW(apply_sweep_flag(
                   "--tasks", [] { return std::string("3,0,5"); }, opts),
               ArgError);  // zero-task entry inside a list.
  EXPECT_THROW(apply_sweep_flag(
                   "--policy", [] { return std::string("nonsense"); }, opts),
               ArgError);
}

TEST(ApplySweepFlag, RetiredEngineModeFlagsAreNotSweepFlags) {
  // The engine has one implementation, the sweep one observation mode
  // and the multicore stage one fault date; the flags that once
  // selected the others fall through to the caller's unknown-flag error
  // without consuming a value.
  for (const char* retired : {"--event-queue", "--sink-mode", "--cost-spec",
                              "--full-traces", "--partitioner",
                              "--core-fault"}) {
    SweepOptions opts;
    bool consumed = false;
    EXPECT_FALSE(apply_sweep_flag(
        retired,
        [&] {
          consumed = true;
          return std::string("wheel");
        },
        opts))
        << retired;
    EXPECT_FALSE(consumed) << retired;
  }
}

TEST(ApplySweepFlag, ExplicitDefaultsParseToTheDefaultScenarioIdentity) {
  // Spelling out a default axis value must not define another sweep:
  // the default stop-poll latency, and every multicore default (one
  // core, the 1 ms quantizer). Both then reproduce the pinned default
  // fingerprint.
  const std::vector<std::vector<std::string>> flag_sets = {
      {"--stop-latency-us", "0"},
      {"--cores", "1", "--quantum-us", "1000"},
  };
  for (const std::vector<std::string>& flags : flag_sets) {
    std::vector<std::string> argv = {"sweep_runner"};
    argv.insert(argv.end(), flags.begin(), flags.end());
    SweepOptions opts;
    EXPECT_TRUE(reparse(argv, opts).empty()) << flags.front();
    EXPECT_TRUE(detail::same_scenario_identity(opts, SweepOptions{}))
        << flags.front();
  }
}

TEST(ApplySweepFlag, ParsesTheMulticoreAxesStrictly) {
  SweepOptions opts;
  EXPECT_TRUE(apply_sweep_flag(
      "--cores", [] { return std::string("1,2,4"); }, opts));
  EXPECT_EQ(opts.grid.core_counts, (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_TRUE(apply_sweep_flag(
      "--quantum-us", [] { return std::string("1000,250"); }, opts));
  EXPECT_EQ(opts.grid.quantizer_resolutions,
            (std::vector<Duration>{Duration::ms(1), Duration::us(250)}));

  EXPECT_THROW(apply_sweep_flag(
                   "--cores", [] { return std::string("0"); }, opts),
               ArgError);
  EXPECT_THROW(apply_sweep_flag(
                   "--cores", [] { return std::string("65"); }, opts),
               ArgError);
  EXPECT_THROW(apply_sweep_flag(
                   "--quantum-us", [] { return std::string("0"); }, opts),
               ArgError);
}

TEST(ApplySweepFlag, BoundsUtilizationsByTheCoreCap) {
  // A generated cost is u_i x period in int64 nanoseconds; past about
  // 9e9 the conversion overflows. (0, 64] is all the widest fleet holds.
  SweepOptions opts;
  EXPECT_TRUE(apply_sweep_flag(
      "--util", [] { return std::string("0.5,64"); }, opts));
  EXPECT_EQ(opts.grid.utilizations, (std::vector<double>{0.5, 64.0}));
  for (const char* bad : {"64.000001", "65", "1e11", "1e300"}) {
    const std::string msg = arg_error_of([&] {
      apply_sweep_flag("--util", [&] { return std::string(bad); }, opts);
    });
    EXPECT_NE(msg.find("--util must be in (0, 64]"), std::string::npos)
        << msg;
  }
}

TEST(WorkerArgv, RoundTripsTheMulticoreAxesBitForBit) {
  SweepOptions opts;
  opts.scenario_count = 60;
  opts.grid.task_counts = {8};
  opts.grid.utilizations = {2.0, 2.4};
  opts.grid.core_counts = {2, 4};
  opts.grid.quantizer_resolutions = {Duration::ms(1), Duration::us(250)};

  const SweepPlan plan(opts);
  const std::vector<std::string> argv = worker_argv(
      "/bin/sweep_runner", plan.options(), plan.shard(0, 2), "/tmp/s0.json");
  SweepOptions reparsed;
  (void)reparse(argv, reparsed);
  EXPECT_TRUE(detail::same_scenario_identity(plan.options(), reparsed));
  EXPECT_EQ(reparsed.grid.core_counts, opts.grid.core_counts);
  EXPECT_EQ(reparsed.grid.quantizer_resolutions,
            opts.grid.quantizer_resolutions);

  // Sub-microsecond quantizer resolutions are inexpressible in the
  // runner CLI and must be refused, not silently rounded.
  SweepOptions sub_us = opts;
  sub_us.grid.quantizer_resolutions = {Duration::ns(500)};
  EXPECT_THROW((void)worker_argv("r", sub_us, plan.shard(0, 2), "p"),
               ContractViolation);
}

TEST(WorkerArgv, RoundTripsTheScenarioIdentityBitForBit) {
  SweepOptions opts;
  opts.scenario_count = 240;
  opts.workers = 2;
  opts.base_seed = 77;
  opts.grid.task_counts = {3, 5};
  // Deliberately awkward doubles: must survive the %.17g round trip.
  opts.grid.utilizations = {0.6, 1.0 / 3.0, 0.8500000000000001};
  opts.grid.detector_costs = {Duration::zero(), Duration::us(200)};
  opts.grid.stop_poll_latencies = {Duration::us(50)};
  opts.detector_policy = core::TreatmentPolicy::kInstantStop;
  opts.horizon_periods = 6;

  const SweepPlan plan(opts);
  const ShardSpec spec = plan.shard(1, 4);
  const std::vector<std::string> argv =
      worker_argv("/bin/sweep_runner", plan.options(), spec, "/tmp/s1.json");
  ASSERT_FALSE(argv.empty());
  EXPECT_EQ(argv[0], "/bin/sweep_runner");

  SweepOptions reparsed;
  const std::vector<std::string> unclaimed = reparse(argv, reparsed);
  // The worker computes the same scenario population...
  EXPECT_TRUE(detail::same_scenario_identity(plan.options(), reparsed));
  // ...with the same execution knob...
  EXPECT_EQ(reparsed.workers, opts.workers);
  // ...and the runner-only flags are exactly the shard/emit/progress
  // triple the coordinator relies on.
  EXPECT_EQ(unclaimed, (std::vector<std::string>{"--shard", "--emit-shard",
                                                 "--progress"}));
}

TEST(WorkerArgv, RefusesOptionsTheRunnerCliCannotExpress) {
  const SweepPlan base(SweepOptions{});
  const ShardSpec spec = base.shard(0, 2);
  {
    SweepOptions opts;
    opts.grid.detector_costs = {Duration::ns(1'500)};  // not whole us.
    EXPECT_THROW((void)worker_argv("r", opts, spec, "p"), ContractViolation);
  }
  {
    SweepOptions opts;
    opts.grid.detector_costs = {Duration::ns(500)};  // sub-microsecond.
    EXPECT_THROW((void)worker_argv("r", opts, spec, "p"), ContractViolation);
  }
  {
    SweepOptions opts;
    opts.base_seed = std::uint64_t{1} << 63;  // above --seed's int64 range.
    EXPECT_THROW((void)worker_argv("r", opts, spec, "p"), ContractViolation);
  }
  EXPECT_THROW((void)worker_argv("", SweepOptions{}, spec, "p"),
               ContractViolation);
}

}  // namespace
}  // namespace rtft::sweep::cli
