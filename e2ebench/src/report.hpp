// Shared plumbing of the end-to-end benchmark: clocks, the percentile
// helper, peak memory, and the result document every run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What one run was asked to do (the command line, parsed).
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the full result document and the span log.
  std::string out_dir = ".bench_out";
};

/// A timing summary: the median, plus the highest percentile that still
/// has at least ten samples beyond it (so a tail figure never rests on a
/// handful of points), and the sample count behind both.
struct Percentiles {
  std::size_t n = 0;
  double median = 0.0;
  double tail_pct = 0.0;  ///< e.g. 99 for p99; 0 when n is too small.
  double tail = 0.0;
};

/// Candidate tail percentiles, highest first.
[[nodiscard]] Percentiles summarize(std::vector<double> samples);

/// Nearest-rank percentile of an already sorted sample (p in (0, 100]).
[[nodiscard]] double sorted_percentile(const std::vector<double>& sorted,
                                       double p);

[[nodiscard]] double median(std::vector<double> samples);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// A metric the benchmark declares: its name and unit.
struct MetricDecl {
  const char* name;
  const char* unit;
};

/// The run's outcome. Metrics keep insertion order; gates that fail
/// flip `correct` and are listed in the full document.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness gate; a false `ok` fails the run.
  void gate(bool ok, const std::string& what);
  void info(const std::string& key, const std::string& value);
  /// The value recorded under `key`, or empty.
  [[nodiscard]] std::string info_value(const std::string& key) const;
  /// Puts the metrics in declared order. A declared metric the run did
  /// not report is an error, or 0 when `absent_is_zero` (a layer this
  /// workload never calls). Returns false on a missing, undeclared or
  /// mis-united metric.
  bool order_metrics(std::span<const MetricDecl> declared, bool absent_is_zero);

  [[nodiscard]] bool correct() const { return correct_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// The one-line summary the benchmark contract asks for.
  [[nodiscard]] std::string summary_json() const;
  /// The full document: provenance, every metric, every gate.
  [[nodiscard]] std::string document_json(const RunConfig& cfg) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, bool>> gates_;
  bool correct_ = true;
  std::vector<std::pair<std::string, std::string>> info_;
};

}  // namespace e2e
