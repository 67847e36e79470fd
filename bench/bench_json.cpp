#include "bench_json.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/file.hpp"
#include "common/strings.hpp"

namespace rtft::bench {
namespace {

/// Counter names may contain '/' but nothing that needs more escaping;
/// escape the JSON specials anyway so the document is always valid.
void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += "0123456789abcdef"[c >> 4];
          out += "0123456789abcdef"[c & 15];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Console reporter that additionally captures every measured run.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      JsonRun captured;
      captured.name = run.benchmark_name();
      captured.iterations = run.iterations;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      captured.real_ns_per_iter = run.real_accumulated_time * 1e9 / iters;
      captured.cpu_ns_per_iter = run.cpu_accumulated_time * 1e9 / iters;
      for (const auto& [name, counter] : run.counters) {
        captured.counters.emplace_back(name, counter.value);
      }
      runs_.push_back(std::move(captured));
    }
    ConsoleReporter::ReportRuns(report);
  }

  [[nodiscard]] const std::vector<JsonRun>& runs() const { return runs_; }

 private:
  std::vector<JsonRun> runs_;
};

const char* build_type() {
#ifdef NDEBUG
  return "NDEBUG";
#else
  return "assertions";
#endif
}

std::string basename_of(const char* path) {
  const std::string s(path);
  const std::size_t slash = s.find_last_of('/');
  return slash == std::string::npos ? s : s.substr(slash + 1);
}

}  // namespace

std::string render_bench_json(const std::string& bench_name,
                              const std::vector<JsonRun>& runs) {
  std::string out = "{\n  \"bench\": ";
  append_quoted(out, bench_name);
  out += ",\n  \"config\": {\"build\": ";
  append_quoted(out, build_type());
  out += ", \"pointer_bits\": " + std::to_string(sizeof(void*) * 8) +
         "},\n  \"results\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const JsonRun& r = runs[i];
    if (i > 0) out += ',';
    out += "\n    {\"name\": ";
    append_quoted(out, r.name);
    out += ", \"iterations\": " + std::to_string(r.iterations) +
           ", \"real_ns_per_iter\": ";
    append_double(out, r.real_ns_per_iter);
    out += ", \"cpu_ns_per_iter\": ";
    append_double(out, r.cpu_ns_per_iter);
    double events_per_iter = 0.0;
    double sec_per_event = 0.0;
    out += ", \"counters\": {";
    for (std::size_t c = 0; c < r.counters.size(); ++c) {
      if (c > 0) out += ", ";
      append_quoted(out, r.counters[c].first);
      out += ": ";
      append_double(out, r.counters[c].second);
      if (r.counters[c].first == "events/iter") {
        events_per_iter = r.counters[c].second;
      }
      if (r.counters[c].first == "sec/event") {
        sec_per_event = r.counters[c].second;
      }
    }
    out += '}';
    // The cross-PR trajectory numbers, derived once here so downstream
    // tooling never re-implements counter-flag arithmetic.
    if (sec_per_event > 0.0) {
      out += ", \"ns_per_event\": ";
      append_double(out, sec_per_event * 1e9);
    }
    if (events_per_iter > 0.0) {
      out += ", \"events_per_run\": ";
      append_double(out, events_per_iter);
    }
    out += '}';
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace rtft::bench

int main(int argc, char** argv) {
  // Peel off --json [PATH] before Google Benchmark sees the arguments.
  std::string json_path;
  bool emit_json = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      emit_json = true;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        json_path = argv[++i];
      }
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  rtft::bench::CapturingReporter reporter;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (ran == 0) return 1;

  if (emit_json) {
    const std::string bench = rtft::bench::basename_of(argv[0]);
    if (json_path.empty()) json_path = "BENCH_" + bench + ".json";
    const std::string doc =
        rtft::bench::render_bench_json(bench, reporter.runs());
    try {
      rtft::write_file(json_path, doc);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  return 0;
}
