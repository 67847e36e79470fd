#include "sweep/export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "support/numeric_locale.hpp"

namespace rtft::sweep {
namespace {

using testsupport::ScopedNumericLocale;

SweepOptions tiny_options() {
  SweepOptions opts;
  opts.scenario_count = 24;
  opts.workers = 2;
  opts.base_seed = 11;
  opts.grid.task_counts = {3};
  opts.grid.utilizations = {0.6, 0.9};
  opts.grid.detector_costs = {Duration::zero()};
  return opts;
}

std::size_t count_lines(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

TEST(SweepExport, VerdictsCsvHasHeaderAndOneRowPerScenario) {
  const SweepReport report = run_sweep(tiny_options());
  const std::string csv = verdicts_csv(report);
  EXPECT_EQ(count_lines(csv), 1 + report.verdicts.size());
  EXPECT_EQ(csv.rfind("index,seed,cell,tasks", 0), 0u);  // starts with header
  // Every row has the full column count.
  const std::size_t columns =
      1 + static_cast<std::size_t>(
              std::count(csv.begin(), csv.begin() + csv.find('\n'), ','));
  std::size_t pos = csv.find('\n') + 1;
  while (pos < csv.size()) {
    const std::size_t end = csv.find('\n', pos);
    const std::string row = csv.substr(pos, end - pos);
    EXPECT_EQ(1 + std::count(row.begin(), row.end(), ','), columns);
    pos = end + 1;
  }
}

TEST(SweepExport, CarriesTheStopLatencyAxis) {
  SweepOptions opts = tiny_options();
  opts.grid.stop_poll_latencies = {Duration::us(250)};
  const SweepReport report = run_sweep(opts);
  const std::string csv = verdicts_csv(report);
  EXPECT_NE(csv.find("stop_poll_latency_ns"), std::string::npos);
  EXPECT_NE(csv.find(",250000,"), std::string::npos);
  EXPECT_NE(cells_csv(report).find("stop_poll_latency_ns"),
            std::string::npos);
  EXPECT_NE(shard_json(report).find("\"stop_poll_latency_ns\":250000"),
            std::string::npos);
}

TEST(SweepExport, CellsCsvHasOneRowPerCell) {
  const SweepReport report = run_sweep(tiny_options());
  const std::string csv = cells_csv(report);
  EXPECT_EQ(count_lines(csv), 1 + report.cells.size());
  EXPECT_NE(csv.find("mean_allowance_ms"), std::string::npos);
}

TEST(SweepExport, JsonCarriesFingerprintSeedAndStructure) {
  const SweepReport report = run_sweep(tiny_options());
  const std::string json = shard_json(report);
  // The fingerprint round-trips as a 16-digit hex string.
  char fp[32];
  std::snprintf(fp, sizeof(fp), "\"%016llx\"",
                static_cast<unsigned long long>(report.fingerprint));
  EXPECT_NE(json.find(std::string("\"fingerprint\": ") + fp),
            std::string::npos);
  EXPECT_NE(json.find("\"options\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"cells\""), std::string::npos);
  EXPECT_NE(json.find("\"verdicts\""), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity without a parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  // Seeds are strings, never bare 64-bit numbers.
  EXPECT_NE(json.find("\"seed\":\""), std::string::npos);
}

TEST(SweepExport, ReportsStayParseableUnderACommaDecimalLocale) {
  ScopedNumericLocale locale;
  if (!locale.force_comma_decimal()) {
    GTEST_SKIP() << "no comma-decimal locale installed on this host";
  }
  const SweepReport report = run_sweep(tiny_options());
  // Column counts survive: no float smuggled a ',' into a CSV row.
  const std::string csv = verdicts_csv(report);
  const std::size_t columns =
      1 + static_cast<std::size_t>(
              std::count(csv.begin(), csv.begin() + csv.find('\n'), ','));
  std::size_t pos = csv.find('\n') + 1;
  while (pos < csv.size()) {
    const std::size_t end = csv.find('\n', pos);
    const std::string row = csv.substr(pos, end - pos);
    ASSERT_EQ(1 + std::count(row.begin(), row.end(), ','), columns) << row;
    pos = end + 1;
  }
  // JSON keeps its structure and numbers keep '.' decimals.
  const std::string json = shard_json(report);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"elapsed_seconds\""), std::string::npos);
  EXPECT_EQ(json.find(",}"), std::string::npos);
}

TEST(SweepExport, ExportsAreDeterministic) {
  const SweepOptions opts = tiny_options();
  const SweepReport a = run_sweep(opts);
  const SweepReport b = run_sweep(opts);
  EXPECT_EQ(verdicts_csv(a), verdicts_csv(b));
  EXPECT_EQ(cells_csv(a), cells_csv(b));
}

// ---------------------------------------------------------------------------
// Golden export corpus: golden/ holds the bytes every export format
// wrote for one small sweep — both shard files of a 2-way split plus the
// report's document (the whole-range shard) and both CSVs. A change to any of them is a change to the
// shard format or to what plotting scripts read, so the corpus is
// regenerated only together with a kShardFormatVersion bump, by running
// rtft_sweep_export_test with --gtest_also_run_disabled_tests
// --gtest_filter='GoldenExportCorpus.DISABLED_Regenerate'.
// ---------------------------------------------------------------------------

/// Every grid axis off its default except the task count, one
/// utilization above 1 and a stopping policy: 24 scenarios over 32
/// cells, so the exports carry multicore verdicts and empty cells too.
SweepOptions golden_options() {
  SweepOptions opts;
  opts.scenario_count = 24;
  opts.workers = 2;
  opts.base_seed = 2006;
  opts.grid.task_counts = {4};
  opts.grid.utilizations = {0.7, 1.2};
  opts.grid.detector_costs = {Duration::zero(), Duration::us(200)};
  opts.grid.stop_poll_latencies = {Duration::zero(), Duration::us(500)};
  opts.grid.core_counts = {1, 2};
  opts.grid.quantizer_resolutions = {Duration::ms(1), Duration::us(500)};
  opts.detector_policy = core::TreatmentPolicy::kInstantStop;
  return opts;
}

std::string golden_path(const std::string& name) {
  return std::string(RTFT_SWEEP_GOLDEN_DIR) + "/" + name;
}

std::string read_golden(const std::string& name) {
  std::ifstream in(golden_path(name), std::ios::binary);
  EXPECT_TRUE(in) << "cannot open golden file " << golden_path(name);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// The in-process report of the corpus sweep. Wall-clock time is not
/// part of the deterministic state, so it is zeroed.
SweepReport golden_report() {
  SweepReport report = run_sweep(golden_options());
  report.elapsed_seconds = 0.0;
  return report;
}

/// Every corpus file as this build writes it: (file name, bytes).
std::vector<std::pair<std::string, std::string>> current_exports() {
  const SweepPlan plan(golden_options());
  std::vector<std::pair<std::string, std::string>> files;
  for (std::uint64_t i = 0; i < 2; ++i) {
    ShardResult shard = run_shard(plan.shard(i, 2), plan.options());
    shard.elapsed_seconds = 0.0;
    files.emplace_back("shard-" + std::to_string(i) + ".json",
                       shard_json(shard));
  }
  const SweepReport report = golden_report();
  files.emplace_back("report.json", shard_json(report));
  files.emplace_back("verdicts.csv", verdicts_csv(report));
  files.emplace_back("cells.csv", cells_csv(report));
  return files;
}

TEST(GoldenExportCorpus, EveryExportMatchesTheFrozenBytes) {
  for (const auto& [name, bytes] : current_exports()) {
    EXPECT_EQ(bytes, read_golden(name)) << name << " changed";
  }
}

TEST(GoldenExportCorpus, CommittedShardFilesMergeToTheInProcessReport) {
  const std::string expected = shard_json(golden_report());
  for (const bool reversed : {false, true}) {
    std::vector<ShardResult> shards;
    shards.push_back(load_shard_json(read_golden("shard-0.json")));
    shards.push_back(load_shard_json(read_golden("shard-1.json")));
    if (reversed) std::swap(shards[0], shards[1]);
    EXPECT_EQ(shard_json(merge(std::move(shards))), expected)
        << (reversed ? "shard-1 first" : "shard-0 first");
  }
}

TEST(GoldenExportCorpus, VerdictsCsvKeepsTheColumnsCiReadsByPosition) {
  // CI's multicore soundness check reads the placement and fail-over
  // flags of verdicts.csv by column number (awk $20-$23).
  const std::string csv = read_golden("verdicts.csv");
  const std::vector<std::string_view> header =
      split(std::string_view(csv).substr(0, csv.find('\n')), ',');
  ASSERT_GE(header.size(), 23u);
  EXPECT_EQ(header[19], "ff_placement_feasible");
  EXPECT_EQ(header[20], "fa_placement_feasible");
  EXPECT_EQ(header[21], "ff_failover_clean");
  EXPECT_EQ(header[22], "fa_failover_clean");
}

TEST(GoldenExportCorpus, DISABLED_Regenerate) {
  for (const auto& [name, bytes] : current_exports()) {
    std::ofstream out(golden_path(name), std::ios::binary);
    out << bytes;
    ASSERT_TRUE(out) << "cannot write " << golden_path(name);
  }
}

}  // namespace
}  // namespace rtft::sweep
