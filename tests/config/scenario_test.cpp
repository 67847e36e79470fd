#include "config/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/paper.hpp"

namespace rtft::cfg {
namespace {

using namespace rtft::literals;

constexpr std::string_view kFigure5 = R"(
# Figure 5 of the paper
[system]
policy = instant-stop
horizon = 2000ms
quantizer = 10ms nearest
stop-mode = task

[task tau1]
priority = 20
cost = 29ms
period = 200ms
deadline = 70ms

[task tau2]
priority = 18
cost = 29ms
period = 250ms
deadline = 120ms

[task tau3]
priority = 16
cost = 29ms
period = 1500ms
deadline = 120ms
offset = 1000ms

[fault]
task = tau1
job = 5
overrun = 40ms
)";

TEST(ParseDuration, UnitsAndDecimals) {
  Duration d;
  ASSERT_TRUE(parse_duration("29ms", d));
  EXPECT_EQ(d, 29_ms);
  ASSERT_TRUE(parse_duration("1.5ms", d));
  EXPECT_EQ(d, 1500_us);
  ASSERT_TRUE(parse_duration("2s", d));
  EXPECT_EQ(d, 2_s);
  ASSERT_TRUE(parse_duration("250us", d));
  EXPECT_EQ(d, 250_us);
  ASSERT_TRUE(parse_duration("17ns", d));
  EXPECT_EQ(d, 17_ns);
  ASSERT_TRUE(parse_duration("0", d));
  EXPECT_EQ(d, Duration::zero());
  ASSERT_TRUE(parse_duration("-5ms", d));
  EXPECT_EQ(d, Duration::ms(-5));
  // Up to the edge of int64 nanoseconds (about 9.22e18).
  ASSERT_TRUE(parse_duration("9.2e9s", d));
  EXPECT_EQ(d, Duration::ns(9'200'000'000'000'000'000));
  ASSERT_TRUE(parse_duration("-9.2e9s", d));
  EXPECT_EQ(d, Duration::ns(-9'200'000'000'000'000'000));
}

TEST(ParseDuration, RejectsMalformedInput) {
  Duration d;
  EXPECT_FALSE(parse_duration("", d));
  EXPECT_FALSE(parse_duration("29", d));       // unit required
  EXPECT_FALSE(parse_duration("ms", d));       // number required
  EXPECT_FALSE(parse_duration("29 ms", d));    // no inner space
  EXPECT_FALSE(parse_duration("29minutes", d));
  EXPECT_FALSE(parse_duration("abcms", d));
  // Past int64 nanoseconds there is no Duration to return.
  d = 7_ms;
  EXPECT_FALSE(parse_duration("9.3e9s", d));
  EXPECT_FALSE(parse_duration("-9.3e9s", d));
  EXPECT_FALSE(parse_duration("1e300s", d));
  EXPECT_FALSE(parse_duration("1e400s", d));  // overflows the double too
  EXPECT_EQ(d, 7_ms);  // a rejected value leaves the output untouched
}

TEST(DurationToConfigString, PicksLargestExactUnit) {
  EXPECT_EQ(duration_to_config_string(2_s), "2s");
  EXPECT_EQ(duration_to_config_string(29_ms), "29ms");
  EXPECT_EQ(duration_to_config_string(1500_us), "1500us");
  EXPECT_EQ(duration_to_config_string(17_ns), "17ns");
  EXPECT_EQ(duration_to_config_string(Duration::zero()), "0");
}

TEST(ParseScenario, Figure5RoundsTrip) {
  const Scenario s = parse_scenario(kFigure5, "figure5.rtft");
  EXPECT_EQ(s.config.policy, core::TreatmentPolicy::kInstantStop);
  EXPECT_EQ(s.config.horizon, 2000_ms);
  EXPECT_EQ(s.config.detector.quantizer.resolution, 10_ms);
  EXPECT_EQ(s.config.detector.quantizer.mode, rt::Rounding::kNearest);
  EXPECT_EQ(s.config.stop_mode, rt::StopMode::kTask);
  ASSERT_EQ(s.config.tasks.size(), 3u);
  EXPECT_EQ(s.config.tasks[0].name, "tau1");
  EXPECT_EQ(s.config.tasks[0].priority, 20);
  EXPECT_EQ(s.config.tasks[2].offset, 1000_ms);
  ASSERT_EQ(s.faults.faults().size(), 1u);
  EXPECT_EQ(s.faults.faults()[0].task, "tau1");
  EXPECT_EQ(s.faults.faults()[0].job_index, 5);
  EXPECT_EQ(s.faults.faults()[0].extra_cost, 40_ms);

  // The parsed scenario matches the canonical in-library construction.
  const core::paper::Scenario canonical =
      core::paper::figures_scenario(core::TreatmentPolicy::kInstantStop);
  for (sched::TaskId i = 0; i < 3; ++i) {
    EXPECT_EQ(s.config.tasks[i].cost, canonical.config.tasks[i].cost);
    EXPECT_EQ(s.config.tasks[i].period, canonical.config.tasks[i].period);
    EXPECT_EQ(s.config.tasks[i].deadline,
              canonical.config.tasks[i].deadline);
  }
}

/// Sets every [system] key away from its default.
constexpr std::string_view kEverySystemKey = R"(
[system]
policy = system-allowance-sound
horizon = 500ms
quantizer = 250us up
stop-mode = job
stop-poll-latency = 2ms
context-switch-cost = 50us
detector-fire-cost = 10us
allowance-granularity = 1ms
run-infeasible = true

[task t]
priority = 1
cost = 1ms
period = 10ms
)";

TEST(ParseScenario, WriteParseIdentity) {
  for (const std::string_view source : {kFigure5, kEverySystemKey}) {
    const Scenario original = parse_scenario(source);
    const std::string text = write_scenario(original);
    const Scenario reparsed = parse_scenario(text);
    EXPECT_EQ(write_scenario(reparsed), text);
    const core::FtSystemConfig& a = original.config;
    const core::FtSystemConfig& b = reparsed.config;
    EXPECT_EQ(b.policy, a.policy);
    EXPECT_EQ(b.horizon, a.horizon);
    EXPECT_EQ(b.detector.quantizer.resolution, a.detector.quantizer.resolution);
    EXPECT_EQ(b.detector.quantizer.mode, a.detector.quantizer.mode);
    EXPECT_EQ(b.detector.fire_cost, a.detector.fire_cost);
    EXPECT_EQ(b.stop_mode, a.stop_mode);
    EXPECT_EQ(b.stop_poll_latency, a.stop_poll_latency);
    EXPECT_EQ(b.context_switch_cost, a.context_switch_cost);
    EXPECT_EQ(b.allowance.granularity, a.allowance.granularity);
    EXPECT_EQ(b.run_infeasible, a.run_infeasible);
    EXPECT_EQ(b.tasks.size(), a.tasks.size());
    EXPECT_EQ(reparsed.faults.faults().size(), original.faults.faults().size());
  }
}

TEST(ParseScenario, ImplicitDeadlineDefaultsToPeriod) {
  const Scenario s = parse_scenario(R"(
[task t]
priority = 1
cost = 1ms
period = 10ms
)");
  EXPECT_EQ(s.config.tasks[0].deadline, 10_ms);
}

TEST(ParseScenario, ErrorsCarryLineNumbers) {
  // A non-empty `key` must open the message, right after the line.
  const auto expect_error_line = [](std::string_view text, int line,
                                    std::string_view key = {}) {
    try {
      (void)parse_scenario(text, "t.rtft");
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
      if (!key.empty()) {
        EXPECT_EQ(std::string(e.what()).rfind(
                      "t.rtft:" + std::to_string(line) + ": " +
                          std::string(key) + ": ",
                      0),
                  0u)
            << e.what();
      }
    }
  };
  expect_error_line("[system]\nbogus-key = 1\n", 2);
  expect_error_line("[system\n", 1);
  expect_error_line("key = value\n", 1);                       // no section
  expect_error_line("[system]\npolicy = nonsense\n", 2);
  expect_error_line("[system]\nhorizon = fast\n", 2);
  expect_error_line("[task ]\n", 1);                           // no name
  expect_error_line("[unknown]\n", 1);
  // A missing mandatory field points at the section header.
  expect_error_line("[task t]\npriority = 1\ncost = 1ms\n", 1);
  expect_error_line("[system]\nquantizer = 10ms\n", 2);  // missing mode
  // Values that parse but that the system refuses.
  expect_error_line("[system]\nhorizon = 0s\n", 2, "horizon");
  expect_error_line("[system]\nhorizon = -1ms\n", 2, "horizon");
  expect_error_line("[system]\nstop-poll-latency = -1ms\n", 2,
                    "stop-poll-latency");
  expect_error_line("[system]\ncontext-switch-cost = -1us\n", 2,
                    "context-switch-cost");
  expect_error_line("[system]\nallowance-granularity = 0\n", 2,
                    "allowance-granularity");
  expect_error_line("[system]\nquantizer = 0ms nearest\n", 2, "quantizer");
  expect_error_line("[system]\nquantizer = -10ms up\n", 2, "quantizer");
  expect_error_line("[system]\ndetector-fire-cost = -10us\n", 2,
                    "detector-fire-cost");
  constexpr std::string_view task = "[task t]\npriority = 1\n";
  for (const char* key : {"cost", "period", "deadline"}) {
    for (const char* value : {"0", "0ms", "-1ms"}) {
      SCOPED_TRACE(::testing::Message() << key << " = " << value);
      expect_error_line(std::string(task) + key + " = " + value + "\n", 3,
                        key);
    }
  }
  expect_error_line(std::string(task) + "offset = -1ms\n", 3, "offset");
  expect_error_line("[task t]\npriority = 4294967297\n", 2, "priority");
  expect_error_line(std::string(task) +
                        "cost = 1ms\nperiod = 10ms\n[fault]\ntask = t\n"
                        "job = -3\n",
                    7, "job");
  // A fault naming no declared task points at its task key; a task
  // declared twice at its second header.
  expect_error_line(std::string(task) +
                        "cost = 1ms\nperiod = 10ms\n[fault]\njob = 0\n"
                        "task = ghost\noverrun = 1ms\n",
                    7, "task");
  expect_error_line(std::string(task) +
                        "cost = 1ms\nperiod = 10ms\n" + std::string(task) +
                        "cost = 1ms\nperiod = 10ms\n",
                    5);
}

TEST(ParseScenario, DurationsPastInt64NanosecondsNameTheKey) {
  const auto expect_error = [](std::string_view text, int line,
                               std::string_view key) {
    try {
      (void)parse_scenario(text, "t.rtft");
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
      EXPECT_NE(std::string(e.what()).find(std::string(key) +
                                           ": cannot parse duration"),
                std::string::npos)
          << e.what();
    }
  };
  expect_error("[task t]\npriority = 1\ncost = 9.3e9s\nperiod = 10ms\n", 3,
               "cost");
  expect_error("[system]\nhorizon = 1e300s\n", 2, "horizon");
}

TEST(ParseScenario, MissingFaultFieldsRejected) {
  constexpr std::string_view base = R"(
[task t]
priority = 1
cost = 1ms
period = 10ms
)";
  EXPECT_THROW(
      (void)parse_scenario(std::string(base) + "[fault]\ntask = t\n"),
      ParseError);
  EXPECT_THROW(
      (void)parse_scenario(std::string(base) + "[fault]\njob = 1\n"),
      ParseError);
}

TEST(ParseScenario, FaultOnUnknownTaskRejected) {
  EXPECT_THROW((void)parse_scenario(R"(
[task t]
priority = 1
cost = 1ms
period = 10ms

[fault]
task = ghost
job = 0
overrun = 1ms
)"),
               ParseError);
}

TEST(ParseScenario, FaultMayPrecedeItsTask) {
  const Scenario s = parse_scenario(R"(
[fault]
task = t
job = 0
overrun = 1ms

[task t]
priority = 1
cost = 1ms
period = 10ms
)");
  EXPECT_EQ(s.faults.faults().size(), 1u);
}

TEST(ParseScenario, EmptyScenarioRejected) {
  EXPECT_THROW((void)parse_scenario("# just a comment\n"), ParseError);
}

TEST(ParseScenario, SystemKnobsParsed) {
  const Scenario s = parse_scenario(kEverySystemKey);
  EXPECT_EQ(s.config.policy, core::TreatmentPolicy::kSystemAllowanceSound);
  EXPECT_EQ(s.config.horizon, 500_ms);
  EXPECT_EQ(s.config.detector.quantizer.resolution, 250_us);
  EXPECT_EQ(s.config.detector.quantizer.mode, rt::Rounding::kUp);
  EXPECT_EQ(s.config.stop_mode, rt::StopMode::kJob);
  EXPECT_EQ(s.config.stop_poll_latency, 2_ms);
  EXPECT_EQ(s.config.context_switch_cost, 50_us);
  EXPECT_EQ(s.config.detector.fire_cost, 10_us);
  EXPECT_EQ(s.config.allowance.granularity, 1_ms);
  EXPECT_TRUE(s.config.run_infeasible);
}

TEST(LoadScenario, MissingFileThrows) {
  // An unreadable file is an I/O error, not a caller bug.
  EXPECT_THROW((void)load_scenario("/nonexistent/scenario.rtft"),
               std::runtime_error);
}

}  // namespace
}  // namespace rtft::cfg
