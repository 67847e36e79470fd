// Deterministic pseudo-random generation for tests and benchmarks.
//
// Property tests and workload generators must be reproducible across runs
// and platforms, so rtft carries its own small PRNG (xoshiro256**) instead
// of relying on implementation-defined std::default_random_engine, plus the
// UUniFast utilization generator standard in real-time systems evaluation.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace rtft {

/// xoshiro256** seeded through SplitMix64. Deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();
  /// Uniform in [0, 1).
  double next_double();
  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

 private:
  std::array<std::uint64_t, 4> state_;
};

/// UUniFast (Bini & Buttazzo): n task utilizations that sum exactly to
/// `total_u`, uniformly distributed over the valid simplex.
std::vector<double> uunifast(Rng& rng, std::size_t n, double total_u);

/// A randomly generated periodic task (parameters only; naming and
/// priority assignment are left to the caller).
struct RandomTask {
  Duration cost;
  Duration period;
  Duration deadline;
};

/// Knobs for random_task_set().
struct RandomTaskSetSpec {
  std::size_t tasks = 3;
  double total_utilization = 0.6;
  Duration min_period = Duration::ms(10);
  Duration max_period = Duration::ms(1000);
  /// Deadline = period * factor in [deadline_min_factor, deadline_max_factor];
  /// factors below 1 give constrained deadlines, above 1 arbitrary ones.
  double deadline_min_factor = 0.8;
  double deadline_max_factor = 1.0;
};

/// Generates a random task set with UUniFast utilizations; costs are
/// rounded up to at least 1us so every task does real work.
std::vector<RandomTask> random_task_set(Rng& rng, const RandomTaskSetSpec& spec);

}  // namespace rtft
