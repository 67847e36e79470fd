#include "sched/canonical.hpp"

#include <algorithm>

#include "common/fnv.hpp"

namespace rtft::sched {

CanonicalTaskSet canonicalize(const TaskSet& ts) {
  CanonicalTaskSet canon;
  canon.rows.reserve(ts.size());
  for (const TaskParams& t : ts) {
    canon.rows.push_back(CanonicalRow{static_cast<std::int64_t>(t.priority),
                                      t.cost.count(), t.period.count(),
                                      t.deadline.count(), t.offset.count()});
  }
  // Priority descending first (the dispatch order), then the remaining
  // fields ascending — any total order works, this one reads naturally
  // in dumps.
  std::sort(canon.rows.begin(), canon.rows.end(),
            [](const CanonicalRow& a, const CanonicalRow& b) {
              if (a[0] != b[0]) return a[0] > b[0];
              return std::lexicographical_compare(a.begin() + 1, a.end(),
                                                  b.begin() + 1, b.end());
            });
  std::uint64_t h = kFnvOffsetBasis;
  fnv_mix(h, canon.rows.size());
  for (const CanonicalRow& row : canon.rows) {
    for (const std::int64_t field : row) {
      fnv_mix(h, static_cast<std::uint64_t>(field));
    }
  }
  canon.hash = h;
  return canon;
}

std::uint64_t canonical_hash(const TaskSet& ts) { return canonicalize(ts).hash; }

}  // namespace rtft::sched
