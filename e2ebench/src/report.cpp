#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {

namespace {

void append_number(std::string& out, double v) {
  char buf[64];
  if (!std::isfinite(v)) v = 0.0;
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// Appends `s` as a JSON string literal.
void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Percentiles summarize(std::vector<double> samples) {
  static constexpr double kTails[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  Percentiles out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.median = sorted_percentile(samples, 50.0);
  for (const double p : kTails) {
    const auto n = static_cast<double>(samples.size());
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (samples.size() - rank >= 10) {
      out.tail_pct = p;
      out.tail = samples[rank - 1];
      break;
    }
  }
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t m = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[m]
                                 : 0.5 * (samples[m - 1] + samples[m]);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
  // the launching interpreter's footprint when that one was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::gate(bool ok, const std::string& what) {
  // A gate checked once per pass is listed once, failed if any check was.
  const auto it = std::find_if(gates_.begin(), gates_.end(),
                               [&](const auto& g) { return g.first == what; });
  if (it == gates_.end()) {
    gates_.emplace_back(what, ok);
  } else {
    it->second = it->second && ok;
  }
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "gate failed: %s\n", what.c_str());
  }
}

void Result::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

std::string Result::info_value(const std::string& key) const {
  for (const auto& [k, v] : info_) {
    if (k == key) return v;
  }
  return {};
}

bool Result::order_metrics(std::span<const MetricDecl> declared,
                           bool absent_is_zero) {
  bool ok = true;
  std::vector<Metric> ordered;
  for (const MetricDecl& d : declared) {
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == d.name; });
    if (it == metrics_.end()) {
      if (!absent_is_zero) ok = false;
      ordered.push_back({d.name, 0.0, d.unit});
      continue;
    }
    if (it->unit != d.unit) ok = false;
    ordered.push_back(*it);
  }
  for (const Metric& m : metrics_) {
    const bool known =
        std::any_of(declared.begin(), declared.end(),
                    [&](const MetricDecl& d) { return m.name == d.name; });
    if (!known) ok = false;
  }
  metrics_ = std::move(ordered);
  return ok;
}

std::string Result::summary_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    append_json_string(out, metrics_[i].name);
    out += ": {\"value\": ";
    append_number(out, metrics_[i].value);
    out += ", \"unit\": ";
    append_json_string(out, metrics_[i].unit);
    out += '}';
  }
  out += "}}";
  return out;
}

std::string Result::document_json(const RunConfig& cfg) const {
  std::string out = "{\n  \"provenance\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_json_string(out, info_[i].first);
    out += ": ";
    append_json_string(out, info_[i].second);
  }
  out += "\n  },\n  \"workload\": ";
  append_json_string(out, cfg.workload);
  out += ",\n  \"trace\": ";
  out += cfg.trace ? "true" : "false";
  out += ",\n  \"gates\": [";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    out += i == 0 ? "\n    {\"gate\": " : ",\n    {\"gate\": ";
    append_json_string(out, gates_[i].first);
    out += ", \"ok\": ";
    out += gates_[i].second ? "true}" : "false}";
  }
  out += "\n  ],\n  \"result\": " + summary_json() + "\n}\n";
  return out;
}

}  // namespace e2e
