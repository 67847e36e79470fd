#include "sched/format.hpp"

#include "common/assert.hpp"
#include "common/strings.hpp"

namespace rtft::sched {

std::string format_task_table(const TaskSet& ts, const TableColumns& cols) {
  const std::size_t n = ts.size();
  if (cols.wcrt) RTFT_EXPECTS(cols.wcrt->size() == n, "wcrt column size");
  if (cols.allowance)
    RTFT_EXPECTS(cols.allowance->size() == n, "allowance column size");
  if (cols.threshold)
    RTFT_EXPECTS(cols.threshold->size() == n, "threshold column size");

  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header{"task", "Pi", "Ti", "Di", "Ci"};
  if (cols.wcrt) header.push_back("WCRTi");
  if (cols.allowance) header.push_back("Ai");
  if (cols.threshold) header.push_back("stop");
  rows.push_back(header);

  for (TaskId i = 0; i < n; ++i) {
    const TaskParams& t = ts[i];
    std::vector<std::string> row{t.name, std::to_string(t.priority),
                                 to_string(t.period), to_string(t.deadline),
                                 to_string(t.cost)};
    if (cols.wcrt) row.push_back(to_string((*cols.wcrt)[i]));
    if (cols.allowance) row.push_back(to_string((*cols.allowance)[i]));
    if (cols.threshold) row.push_back(to_string((*cols.threshold)[i]));
    rows.push_back(std::move(row));
  }

  // The header rule spans the header line, which is padded to the
  // table's full width.
  std::string out = format_table(rows);
  const std::size_t width = out.find('\n');
  out.insert(width + 1, std::string(width, '-') + '\n');
  return out;
}

}  // namespace rtft::sched
