#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "core/ft_system.hpp"
#include "core/paper.hpp"
#include "trace/ascii_chart.hpp"
#include "trace/svg_chart.hpp"

namespace rtft::trace {
namespace {

using core::FaultTolerantSystem;
using core::TreatmentPolicy;
using namespace rtft::literals;

SystemTimeline figure_timeline(TreatmentPolicy policy) {
  core::paper::Scenario s = core::paper::figures_scenario(policy);
  const sched::TaskSet tasks = s.config.tasks;
  FaultTolerantSystem sys(std::move(s.config), std::move(s.faults));
  (void)sys.run();
  return build_timeline(tasks, sys.recorder(),
                        Instant::epoch() + core::paper::kFigureHorizon);
}

AsciiChartOptions window_1000_1130() {
  AsciiChartOptions opts;
  opts.from = Instant::epoch() + 1000_ms;
  opts.to = Instant::epoch() + 1130_ms;
  opts.width = 130;  // 1 ms per column
  return opts;
}

TEST(AsciiChart, RendersAllTaskRows) {
  const std::string chart = render_ascii_chart(
      figure_timeline(TreatmentPolicy::kInstantStop), window_1000_1130());
  EXPECT_NE(chart.find("tau1"), std::string::npos);
  EXPECT_NE(chart.find("tau2"), std::string::npos);
  EXPECT_NE(chart.find("tau3"), std::string::npos);
  EXPECT_NE(chart.find("running"), std::string::npos) << "legend expected";
}

TEST(AsciiChart, StopMarkAppearsForInstantStop) {
  const std::string chart = render_ascii_chart(
      figure_timeline(TreatmentPolicy::kInstantStop), window_1000_1130());
  EXPECT_NE(chart.find('X'), std::string::npos);
}

TEST(AsciiChart, NoStopMarkWithoutTreatment) {
  AsciiChartOptions opts = window_1000_1130();
  opts.legend = false;  // the legend itself contains the X glyph
  const std::string chart = render_ascii_chart(
      figure_timeline(TreatmentPolicy::kDetectOnly), opts);
  EXPECT_EQ(chart.find('X'), std::string::npos);
}

TEST(AsciiChart, DetectorMarksOnlyWhenInstalled) {
  AsciiChartOptions opts = window_1000_1130();
  opts.legend = false;
  const std::string with =
      render_ascii_chart(figure_timeline(TreatmentPolicy::kDetectOnly), opts);
  const std::string without = render_ascii_chart(
      figure_timeline(TreatmentPolicy::kNoDetection), opts);
  EXPECT_NE(with.find('*'), std::string::npos);
  EXPECT_EQ(without.find('*'), std::string::npos);
}

TEST(AsciiChart, DeterministicOutput) {
  const std::string a = render_ascii_chart(
      figure_timeline(TreatmentPolicy::kSystemAllowance), window_1000_1130());
  const std::string b = render_ascii_chart(
      figure_timeline(TreatmentPolicy::kSystemAllowance), window_1000_1130());
  EXPECT_EQ(a, b);
}

TEST(AsciiChart, UnicodeGlyphs) {
  AsciiChartOptions opts = window_1000_1130();
  opts.unicode = true;
  const std::string chart = render_ascii_chart(
      figure_timeline(TreatmentPolicy::kDetectOnly), opts);
  EXPECT_NE(chart.find("↑"), std::string::npos);
  EXPECT_NE(chart.find("█"), std::string::npos);
  EXPECT_NE(chart.find("◆"), std::string::npos);
}

TEST(AsciiChart, RejectsDegenerateWindows) {
  const SystemTimeline tl = figure_timeline(TreatmentPolicy::kNoDetection);
  AsciiChartOptions opts;
  opts.width = 4;
  EXPECT_THROW((void)render_ascii_chart(tl, opts), ContractViolation);
  opts = AsciiChartOptions{};
  opts.from = Instant::epoch() + 10_ms;
  opts.to = Instant::epoch() + 10_ms;
  EXPECT_THROW((void)render_ascii_chart(tl, opts), ContractViolation);
}

TEST(SvgChart, WellFormedDocument) {
  const std::string svg =
      render_svg_chart(figure_timeline(TreatmentPolicy::kInstantStop));
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("tau1"), std::string::npos);
  // Stop cross drawn in red.
  EXPECT_NE(svg.find("#cc0000"), std::string::npos);
}

TEST(SvgChart, EscapesTaskNames) {
  // A name a .rtft section header accepts ("[task a<b&c,d]"), plus both
  // quote characters.
  const std::string name = "a<b&c,d\"'";
  SystemTimeline tl = figure_timeline(TreatmentPolicy::kInstantStop);
  tl.tasks[0].name = name;
  const std::string svg = render_svg_chart(tl);
  EXPECT_EQ(svg.find(name), std::string::npos);
  EXPECT_NE(svg.find(">a&lt;b&amp;c,d&quot;&apos;</text>"), std::string::npos);
  // Well-formed as far as text goes: every '&' opens an entity.
  for (std::size_t at = svg.find('&'); at != std::string::npos;
       at = svg.find('&', at + 1)) {
    const std::string_view rest = std::string_view(svg).substr(at);
    EXPECT_TRUE(rest.rfind("&amp;", 0) == 0 || rest.rfind("&lt;", 0) == 0 ||
                rest.rfind("&gt;", 0) == 0 || rest.rfind("&quot;", 0) == 0 ||
                rest.rfind("&apos;", 0) == 0)
        << rest.substr(0, 8);
  }
}

TEST(SvgChart, Deterministic) {
  const SystemTimeline tl = figure_timeline(TreatmentPolicy::kDetectOnly);
  EXPECT_EQ(render_svg_chart(tl), render_svg_chart(tl));
}

}  // namespace
}  // namespace rtft::trace
