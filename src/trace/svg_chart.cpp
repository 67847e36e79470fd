#include "trace/svg_chart.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"
#include "common/strings.hpp"

namespace rtft::trace {
namespace {

constexpr int kWidthPx = 960;
constexpr int kLaneHeightPx = 48;
constexpr int kMarginLeft = 90;
constexpr int kMarginTop = 24;
constexpr int kMarginBottom = 28;

/// Muted qualitative palette, one colour per lane (cycled).
const char* lane_color(std::size_t i) {
  static const char* kColors[] = {"#4878d0", "#ee854a", "#6acc64",
                                  "#d65f5f", "#956cb4", "#8c613c"};
  return kColors[i % (sizeof(kColors) / sizeof(kColors[0]))];
}

std::string fmt(double v) { return format_fixed(v, 2); }

/// Escapes the five XML special characters for a text node.
std::string xml_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string render_svg_chart(const SystemTimeline& tl) {
  const Instant from = tl.start;
  const Instant to = tl.end;
  RTFT_EXPECTS(to > from, "chart window must be non-empty");

  const double plot_w = kWidthPx - kMarginLeft - 16;
  const double span_ns = static_cast<double>((to - from).count());
  const auto x_of = [&](Instant t) {
    return kMarginLeft +
           plot_w * static_cast<double>((t - from).count()) / span_ns;
  };
  const int lanes = static_cast<int>(tl.tasks.size());
  const int height = kMarginTop + lanes * kLaneHeightPx + kMarginBottom;

  std::ostringstream svg;
  svg << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
      << kWidthPx << "\" height=\"" << height << "\" viewBox=\"0 0 "
      << kWidthPx << ' ' << height << "\">\n";
  svg << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";

  // Time grid: ten divisions.
  for (int i = 0; i <= 10; ++i) {
    const double x = kMarginLeft + plot_w * i / 10.0;
    svg << "<line x1=\"" << fmt(x) << "\" y1=\"" << kMarginTop
        << "\" x2=\"" << fmt(x) << "\" y2=\""
        << kMarginTop + lanes * kLaneHeightPx
        << "\" stroke=\"#dddddd\" stroke-width=\"1\"/>\n";
    const Instant t = from + (to - from) * i / 10;
    svg << "<text x=\"" << fmt(x) << "\" y=\"" << height - 8
        << "\" font-size=\"11\" text-anchor=\"middle\" fill=\"#555\">"
        << to_string(t) << "</text>\n";
  }

  for (std::size_t lane = 0; lane < tl.tasks.size(); ++lane) {
    const TaskTimeline& task = tl.tasks[lane];
    const double y0 =
        kMarginTop + static_cast<double>(lane) * kLaneHeightPx;
    const double bar_y = y0 + kLaneHeightPx * 0.35;
    const double bar_h = kLaneHeightPx * 0.38;
    const char* color = lane_color(lane);

    svg << "<text x=\"8\" y=\"" << fmt(y0 + kLaneHeightPx * 0.62)
        << "\" font-size=\"13\" fill=\"#222\">" << xml_escape(task.name)
        << "</text>\n";

    for (const JobRecord& job : task.jobs) {
      // Execution rectangles.
      for (const ExecutionSpan& s : job.spans) {
        const Instant b = std::max(s.begin, from);
        const Instant e = std::min(s.end, to);
        if (b >= e) continue;
        svg << "<rect x=\"" << fmt(x_of(b)) << "\" y=\"" << fmt(bar_y)
            << "\" width=\"" << fmt(x_of(e) - x_of(b)) << "\" height=\""
            << fmt(bar_h) << "\" fill=\"" << color
            << (job.missed ? "\" opacity=\"0.55" : "") << "\"/>\n";
      }
      // Release arrow (up) and deadline arrow (down).
      if (job.release >= from && job.release <= to) {
        const double x = x_of(job.release);
        svg << "<path d=\"M" << fmt(x) << ' ' << fmt(bar_y) << " l-4 -9 l8 0 z\" fill=\"#333\"/>\n";
      }
      if (job.deadline >= from && job.deadline <= to) {
        const double x = x_of(job.deadline);
        svg << "<path d=\"M" << fmt(x) << ' ' << fmt(bar_y + bar_h)
            << " l-4 9 l8 0 z\" fill=\""
            << (job.missed ? "#cc0000" : "#333") << "\"/>\n";
      }
      // Stop cross.
      if (job.aborted_at && *job.aborted_at >= from &&
          *job.aborted_at <= to) {
        const double x = x_of(*job.aborted_at);
        const double cy = bar_y + bar_h / 2;
        svg << "<path d=\"M" << fmt(x - 5) << ' ' << fmt(cy - 5) << " L"
            << fmt(x + 5) << ' ' << fmt(cy + 5) << " M" << fmt(x - 5) << ' '
            << fmt(cy + 5) << " L" << fmt(x + 5) << ' ' << fmt(cy - 5)
            << "\" stroke=\"#cc0000\" stroke-width=\"2\"/>\n";
      }
    }
    // Detector diamonds.
    for (const Instant t : task.detector_fires) {
      if (t < from || t > to) continue;
      const double x = x_of(t);
      const double cy = bar_y - 6;
      svg << "<path d=\"M" << fmt(x) << ' ' << fmt(cy - 4) << " l4 4 l-4 4 l-4 -4 z\" fill=\"#b8860b\"/>\n";
    }
  }

  svg << "</svg>\n";
  return svg.str();
}

}  // namespace rtft::trace
