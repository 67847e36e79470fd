#include "common/random.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace rtft {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t v, int k) {
  return (v << k) | (v >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  RTFT_EXPECTS(lo <= hi, "next_in requires lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling for unbiased draws.
  const std::uint64_t limit = std::uint64_t(-1) - std::uint64_t(-1) % span;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<std::int64_t>(v % span);
}

std::vector<double> uunifast(Rng& rng, std::size_t n, double total_u) {
  RTFT_EXPECTS(n > 0, "uunifast needs at least one task");
  RTFT_EXPECTS(total_u > 0.0, "uunifast needs positive utilization");
  std::vector<double> u(n);
  double sum = total_u;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double next =
        sum * std::pow(rng.next_double(),
                       1.0 / static_cast<double>(n - 1 - i));
    u[i] = sum - next;
    sum = next;
  }
  u[n - 1] = sum;
  return u;
}

std::vector<RandomTask> random_task_set(Rng& rng,
                                        const RandomTaskSetSpec& spec) {
  RTFT_EXPECTS(spec.tasks > 0, "need at least one task");
  RTFT_EXPECTS(spec.min_period.is_positive() &&
                   spec.max_period >= spec.min_period,
               "invalid period range");
  RTFT_EXPECTS(spec.deadline_min_factor > 0.0 &&
                   spec.deadline_max_factor >= spec.deadline_min_factor,
               "invalid deadline factor range");
  const std::vector<double> utils =
      uunifast(rng, spec.tasks, spec.total_utilization);
  std::vector<RandomTask> out;
  out.reserve(spec.tasks);
  for (double ui : utils) {
    RandomTask t;
    // Log-uniform periods spread tasks across timescales, the standard
    // practice in schedulability experiments.
    const double lo = std::log(static_cast<double>(spec.min_period.count()));
    const double hi = std::log(static_cast<double>(spec.max_period.count()));
    const double p = std::exp(lo + (hi - lo) * rng.next_double());
    t.period = Duration::ns(static_cast<std::int64_t>(p));
    std::int64_t cost_ns =
        static_cast<std::int64_t>(ui * static_cast<double>(t.period.count()));
    if (cost_ns < 1'000) cost_ns = 1'000;  // at least 1us of work
    t.cost = Duration::ns(cost_ns);
    const double f = spec.deadline_min_factor +
                     (spec.deadline_max_factor - spec.deadline_min_factor) *
                         rng.next_double();
    std::int64_t dl_ns =
        static_cast<std::int64_t>(f * static_cast<double>(t.period.count()));
    if (dl_ns < cost_ns) dl_ns = cost_ns;  // deadline can never precede cost
    t.deadline = Duration::ns(dl_ns);
    out.push_back(t);
  }
  return out;
}

}  // namespace rtft
