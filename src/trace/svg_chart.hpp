// SVG time-series chart — the vector-graphics counterpart of the ASCII
// chart, matching the paper's figure layout: one lane per task, execution
// rectangles, release/deadline arrows, detector diamonds, stop crosses.
#pragma once

#include <string>

#include "trace/timeline.hpp"

namespace rtft::trace {

/// Renders the whole run (tl.start to tl.end) as a standalone SVG
/// document, 960 px wide with a 48 px lane per task and a ten-division
/// time grid (deterministic). Task names are XML-escaped.
[[nodiscard]] std::string render_svg_chart(const SystemTimeline& tl);

}  // namespace rtft::trace
