#include "trace/log_writer.hpp"

#include <gtest/gtest.h>

#include "core/ft_system.hpp"
#include "core/paper.hpp"

namespace rtft::trace {
namespace {

using core::FaultTolerantSystem;
using core::TreatmentPolicy;
using namespace rtft::literals;

struct LoggedRun {
  sched::TaskSet tasks;
  std::unique_ptr<FaultTolerantSystem> sys;
};

LoggedRun small_run() {
  LoggedRun r;
  core::paper::Scenario s =
      core::paper::figures_scenario(TreatmentPolicy::kInstantStop);
  s.config.horizon = 1200_ms;
  r.tasks = s.config.tasks;
  r.sys = std::make_unique<FaultTolerantSystem>(std::move(s.config),
                                                std::move(s.faults));
  (void)r.sys->run();
  return r;
}

TEST(TextLog, OneLinePerEventWithNames) {
  const LoggedRun r = small_run();
  const std::string log = text_log_string(r.sys->recorder(), r.tasks);
  EXPECT_NE(log.find("release"), std::string::npos);
  EXPECT_NE(log.find("task-stopped"), std::string::npos);
  EXPECT_NE(log.find("tau1"), std::string::npos);
  // Line count equals event count.
  const std::size_t lines =
      static_cast<std::size_t>(std::count(log.begin(), log.end(), '\n'));
  EXPECT_EQ(lines, r.sys->recorder().size());
}

TEST(Csv, HeaderAndRowShape) {
  const LoggedRun r = small_run();
  const std::string csv = csv_string(r.sys->recorder(), r.tasks);
  EXPECT_EQ(csv.rfind("time_ns,kind,task,job,detail\n", 0), 0u);
  // Every row has exactly 4 commas.
  std::size_t pos = csv.find('\n') + 1;
  while (pos < csv.size()) {
    const std::size_t end = csv.find('\n', pos);
    const std::string_view row(csv.data() + pos, end - pos);
    EXPECT_EQ(std::count(row.begin(), row.end(), ','), 4) << row;
    pos = end + 1;
  }
}

TEST(Csv, QuotesNamesWithCommasAndQuotes) {
  const LoggedRun r = small_run();
  // Names a .rtft section header accepts ("[task a<b&c,d]") can carry
  // the separator and the quote character.
  sched::TaskSet named;
  for (sched::TaskParams t : r.tasks) {
    if (t.name == "tau1") t.name = "a<b&c,d";
    if (t.name == "tau2") t.name = "say \"hi\"";
    named.add(t);
  }
  const std::string csv = csv_string(r.sys->recorder(), named);
  EXPECT_NE(csv.find(",\"a<b&c,d\","), std::string::npos);
  EXPECT_NE(csv.find(",\"say \"\"hi\"\"\","), std::string::npos);
  EXPECT_NE(csv.find(",tau3,"), std::string::npos);  // plain names stay bare
  // Every row has exactly 4 separators outside quotes.
  std::size_t pos = csv.find('\n') + 1;
  while (pos < csv.size()) {
    const std::size_t end = csv.find('\n', pos);
    int separators = 0;
    bool quoted = false;
    for (std::size_t i = pos; i < end; ++i) {
      if (csv[i] == '"') quoted = !quoted;
      if (csv[i] == ',' && !quoted) ++separators;
    }
    EXPECT_FALSE(quoted);
    EXPECT_EQ(separators, 4) << csv.substr(pos, end - pos);
    pos = end + 1;
  }
}

}  // namespace
}  // namespace rtft::trace
