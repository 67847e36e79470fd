#include "sweep/export.hpp"

#include <charconv>
#include <concepts>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/strings.hpp"
#include "core/treatment.hpp"
#include "sweep/generators.hpp"

namespace rtft::sweep {

namespace {

// ---------------------------------------------------------------------------
// The field lists: one per record, in document and CSV column order. Each
// calls f(key, field) once per field; the JSON writer, the CSV writers
// and the loader all walk these lists, so a record's keys, order and
// encodings are written down once. (Fingerprint::add keeps its own
// historical order: both pinned fingerprints depend on it.)
// ---------------------------------------------------------------------------

/// A 64-bit value that travels as a 16-digit hex string: JSON numbers
/// stop being exact at 2^53.
template <typename T>
struct Hex {
  T& value;
};

template <typename Verdict, typename F>
void verdict_fields(Verdict& v, F&& f) {
  f("index", v.index);
  f("seed", Hex{v.seed});
  f("cell", v.cell);
  f("tasks", v.task_count);
  f("target_utilization", v.target_utilization);
  f("actual_utilization", v.actual_utilization);
  f("detector_cost_ns", v.detector_cost);
  f("stop_poll_latency_ns", v.stop_poll_latency);
  f("rta_schedulable", v.rta_schedulable);
  f("engine_clean", v.engine_clean);
  f("nominal_misses", v.nominal_misses);
  f("agreement", v.agreement);
  f("allowance_feasible", v.allowance_feasible);
  f("allowance_ns", v.allowance);
  f("allowance_honored", v.allowance_honored);
  f("detector_clean", v.detector_clean);
  f("detector_faults", v.detector_faults);
  f("cores", v.cores);
  f("quantum_ns", v.quantum);
  f("ff_placement_feasible", v.ff_placement_feasible);
  f("fa_placement_feasible", v.fa_placement_feasible);
  f("ff_failover_clean", v.ff_failover_clean);
  f("fa_failover_clean", v.fa_failover_clean);
  f("ff_missed_tasks", v.ff_missed_tasks);
  f("fa_missed_tasks", v.fa_missed_tasks);
  f("ff_lost_jobs", v.ff_lost_jobs);
  f("fa_lost_jobs", v.fa_lost_jobs);
}

/// The stored counters; the documents add the derived mean allowance.
template <typename Aggregate, typename F>
void aggregate_fields(Aggregate& a, F&& f) {
  f("total", a.total);
  f("rta_schedulable", a.rta_schedulable);
  f("engine_clean", a.engine_clean);
  f("agreement_violations", a.agreement_violations);
  f("allowance_feasible", a.allowance_feasible);
  f("allowance_honored", a.allowance_honored);
  f("detector_clean", a.detector_clean);
  f("allowance_sum_ns", a.allowance_sum);
  f("multicore", a.multicore);
  f("ff_placed", a.ff_placed);
  f("fa_placed", a.fa_placed);
  f("ff_failover_clean", a.ff_failover_clean);
  f("fa_failover_clean", a.fa_failover_clean);
}

/// A cell's grid coordinates; the documents prefix its index.
template <typename Cell, typename F>
void cell_fields(Cell& c, F&& f) {
  f("tasks", c.task_count);
  f("utilization", c.utilization);
  f("detector_cost_ns", c.detector_cost);
  f("stop_poll_latency_ns", c.stop_poll_latency);
  f("cores", c.cores);
  f("quantum_ns", c.quantum);
}

template <typename Grid, typename F>
void grid_fields(Grid& g, F&& f) {
  f("task_counts", g.task_counts);
  f("utilizations", g.utilizations);
  f("detector_cost_ns", g.detector_costs);
  f("stop_poll_latency_ns", g.stop_poll_latencies);
  f("core_counts", g.core_counts);
  f("quantizer_resolution_ns", g.quantizer_resolutions);
}

/// The options, as both documents (report and shard) carry them.
template <typename Options, typename F>
void option_fields(Options& o, F&& f) {
  f("scenario_count", o.scenario_count);
  f("base_seed", Hex{o.base_seed});
  f("workers", o.workers);
  f("horizon_periods", o.horizon_periods);
  f("detector_policy", o.detector_policy);
  f("grid", o.grid);
}

template <typename Shard, typename F>
void shard_spec_fields(Shard& s, F&& f) {
  f("index", s.index);
  f("shards", s.shards);
  f("begin", s.begin);
  f("end", s.end);
}

// ---------------------------------------------------------------------------
// Writers. Keys are appended directly and integers go through to_chars:
// the shard writer runs once per shard file on the sweep's data path.
// ---------------------------------------------------------------------------

void append_hex(std::string& out, std::uint64_t v) {
  char digits[16];
  for (int i = 15; i >= 0; --i, v >>= 4) digits[i] = "0123456789abcdef"[v & 15];
  out.append(digits, sizeof(digits));
}

void put(std::string& out, bool v) { out += v ? "true" : "false"; }

template <std::integral T>
void put(std::string& out, T v) {
  char digits[24];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), v);
  out.append(digits, end);
}

void put(std::string& out, double v) { append_double(out, v); }

void put(std::string& out, Duration d) { put(out, d.count()); }

template <typename T>
void put(std::string& out, Hex<T> h) {
  out += '"';
  append_hex(out, h.value);
  out += '"';
}

/// The policy travels by its to_string name.
void put(std::string& out, core::TreatmentPolicy p) {
  out += '"';
  out += core::to_string(p);
  out += '"';
}

template <typename T>
void put(std::string& out, const std::vector<T>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    put(out, values[i]);
  }
  out += ']';
}

void put(std::string& out, const SweepGrid& g);
void put(std::string& out, const SweepAggregate& a);

/// Field-list visitor writing `"key":value` object members.
struct JsonMembers {
  std::string& out;
  bool first = true;

  template <typename T>
  void operator()(const char* key, const T& value) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    out += "\":";
    put(out, value);
  }
};

void put(std::string& out, const SweepGrid& g) {
  out += '{';
  grid_fields(g, JsonMembers{out});
  out += '}';
}

void put(std::string& out, const SweepAggregate& a) {
  out += '{';
  JsonMembers m{out};
  aggregate_fields(a, m);
  m("mean_allowance_ms", a.mean_allowance_ms());
  out += '}';
}

/// Field-list visitor writing one CSV row: the keys when `header` is
/// set, else the values (booleans as 1/0, hex values unquoted).
struct CsvRow {
  std::string& out;
  bool header = false;
  bool first = true;

  template <typename T>
  void operator()(const char* key, const T& value) {
    if (!first) out += ',';
    first = false;
    if (header) {
      out += key;
    } else if constexpr (std::is_same_v<T, bool>) {
      out += value ? '1' : '0';
    } else if constexpr (std::is_same_v<T, Hex<const std::uint64_t>>) {
      append_hex(out, value.value);
    } else {
      put(out, value);
    }
  }
};

/// The totals, cells and verdicts members report_json and shard_json
/// share, each on its own line.
void put_results(std::string& out, const SweepAggregate& totals,
                 const std::vector<CellSummary>& cells,
                 const std::vector<ScenarioVerdict>& verdicts) {
  out += "  \"totals\": ";
  put(out, totals);
  out += ",\n  \"cells\": [";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    out += c > 0 ? ",\n    {" : "\n    {";
    JsonMembers m{out};
    m("cell", c);
    cell_fields(cells[c], m);
    m("aggregate", cells[c].agg);
    out += '}';
  }
  out += "\n  ],\n  \"verdicts\": [";
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    out += i > 0 ? ",\n    {" : "\n    {";
    verdict_fields(verdicts[i], JsonMembers{out});
    out += '}';
  }
  out += "\n  ],\n";
}

}  // namespace

std::string verdicts_csv(const SweepReport& report) {
  std::string out;
  const ScenarioVerdict header;
  verdict_fields(header, CsvRow{out, /*header=*/true});
  out += '\n';
  for (const ScenarioVerdict& v : report.verdicts) {
    verdict_fields(v, CsvRow{out});
    out += '\n';
  }
  return out;
}

std::string cells_csv(const SweepReport& report) {
  std::string out;
  const auto row = [&out](bool header, std::size_t index,
                          const CellSummary& cell) {
    CsvRow csv{out, header};
    csv("cell", index);
    cell_fields(cell, csv);
    // The counters and their mean allowance; the nanosecond sum stays
    // in the JSON documents.
    aggregate_fields(cell.agg, [&csv](const char* key, const auto& value) {
      if constexpr (!std::is_same_v<std::decay_t<decltype(value)>, Duration>) {
        csv(key, value);
      }
    });
    csv("mean_allowance_ms", cell.agg.mean_allowance_ms());
    out += '\n';
  };
  row(true, 0, CellSummary{});
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    row(false, c, report.cells[c]);
  }
  return out;
}

std::string report_json(const SweepReport& report) {
  std::string out = "{\n  \"options\": {";
  option_fields(report.options, JsonMembers{out});
  out += "},\n";
  put_results(out, report.totals, report.cells, report.verdicts);
  out += "  \"elapsed_seconds\": ";
  put(out, report.elapsed_seconds);
  out += ",\n  \"fingerprint\": ";
  put(out, Hex{report.fingerprint});
  out += "\n}\n";
  return out;
}

std::string shard_json(const ShardResult& shard) {
  std::string out = "{\n  \"format\": \"";
  out += kShardFormatName;
  out += "\",\n  \"version\": ";
  put(out, kShardFormatVersion);
  out += ",\n  \"options\": {";
  option_fields(shard.options, JsonMembers{out});
  out += "},\n  \"shard\": {";
  shard_spec_fields(shard.shard, JsonMembers{out});
  out += "},\n";
  put_results(out, shard.totals, shard.cells, shard.verdicts);
  out += "  \"fingerprint\": ";
  put(out, Hex{shard.fingerprint});
  out += ",\n  \"elapsed_seconds\": ";
  put(out, shard.elapsed_seconds);
  out += "\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Shard interchange: reader. A minimal recursive-descent JSON parser —
// just what the versioned shard format needs, with every failure mapped
// to a ShardError naming the defect (the repo deliberately has no JSON
// dependency).
// ---------------------------------------------------------------------------

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  /// Decoded characters for kString; the raw token for kNumber (kept
  /// textual so 64-bit integers and %.17g doubles convert losslessly
  /// via from_chars instead of detouring through double).
  std::string text;
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject.
  std::vector<JsonValue> items;                            ///< kArray.

  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return v;
  }

 private:
  /// The shard format nests four levels deep; anything past this bound
  /// is not one of our documents (and must not overflow the C++ stack).
  static constexpr int kMaxDepth = 16;

  [[noreturn]] void fail(const std::string& why) const {
    throw ShardError("shard JSON parse error at offset " +
                     std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) {
      throw ShardError("shard JSON parse error at offset " +
                       std::to_string(pos_) + ": unexpected end of document");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + '\'');
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        switch (text_[pos_++]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          default:
            // \uXXXX is valid JSON but the format never emits it.
            fail("unsupported string escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      out += c;
    }
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("document nests too deeply");
    skip_ws();
    JsonValue v;
    const char c = peek();
    if (c == '{') {
      ++pos_;
      v.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (consume('}')) return v;
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.members.emplace_back(std::move(key), parse_value(depth + 1));
        skip_ws();
        if (consume(',')) continue;
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (consume(']')) return v;
      for (;;) {
        v.items.push_back(parse_value(depth + 1));
        skip_ws();
        if (consume(',')) continue;
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.text = parse_string();
      return v;
    }
    if (consume_word("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_word("false")) {
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consume_word("null")) return v;
    // Number token: validated on conversion, so the scan just collects.
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char d = text_[pos_];
      const bool number_char = (d >= '0' && d <= '9') || d == '-' ||
                               d == '+' || d == '.' || d == 'e' || d == 'E';
      if (!number_char) break;
      ++pos_;
    }
    if (pos_ == start) fail("expected a JSON value");
    v.kind = JsonValue::Kind::kNumber;
    v.text.assign(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void field_error(const char* what, const std::string& why) {
  throw ShardError(std::string("shard JSON field '") + what + "': " + why);
}

const JsonValue& member(const JsonValue& obj, const char* key) {
  if (obj.kind != JsonValue::Kind::kObject) {
    field_error(key, "enclosing value is not an object");
  }
  const JsonValue* v = obj.find(key);
  if (v == nullptr) field_error(key, "missing");
  return *v;
}

const std::string& as_string(const JsonValue& v, const char* what) {
  if (v.kind != JsonValue::Kind::kString) {
    field_error(what, "expected a string");
  }
  return v.text;
}

const std::vector<JsonValue>& as_array(const JsonValue& v, const char* what) {
  if (v.kind != JsonValue::Kind::kArray) field_error(what, "expected an array");
  return v.items;
}

// Readers, one per field type; each accepts exactly what put writes.

void get(const JsonValue& v, const char* what, bool& out) {
  if (v.kind != JsonValue::Kind::kBool) field_error(what, "expected a bool");
  out = v.boolean;
}

/// Numbers convert from their raw token, so 64-bit integers and %.17g
/// doubles arrive losslessly.
template <typename T>
  requires std::is_arithmetic_v<T>
void get(const JsonValue& v, const char* what, T& out) {
  const char* end = v.text.data() + v.text.size();
  const auto [p, ec] = std::from_chars(v.text.data(), end, out);
  if (v.kind != JsonValue::Kind::kNumber || ec != std::errc{} || p != end) {
    if constexpr (std::is_floating_point_v<T>) {
      field_error(what, "expected a number");
    } else if constexpr (std::is_signed_v<T>) {
      field_error(what, "expected an integer");
    } else {
      field_error(what, "expected an unsigned integer");
    }
  }
}

void get(const JsonValue& v, const char* what, Duration& out) {
  std::int64_t ns = 0;
  get(v, what, ns);
  out = Duration::ns(ns);
}

void get(const JsonValue& v, const char* what, Hex<std::uint64_t> h) {
  const std::string& s = as_string(v, what);
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(),
                                       h.value, 16);
  if (ec != std::errc{} || p != s.data() + s.size() || s.empty() ||
      s.size() > 16) {
    field_error(what, "expected a 64-bit hex string");
  }
}

/// The policy arrives by name; an unknown name is a defect of the file.
void get(const JsonValue& v, const char* what, core::TreatmentPolicy& out) {
  try {
    out = core::treatment_policy_from_string(as_string(v, what));
  } catch (const ContractViolation&) {
    field_error(what, "unknown name");
  }
}

template <typename T>
void get(const JsonValue& v, const char* what, std::vector<T>& out) {
  const std::vector<JsonValue>& items = as_array(v, what);
  out.assign(items.size(), T{});
  for (std::size_t i = 0; i < items.size(); ++i) get(items[i], what, out[i]);
}

void get(const JsonValue& v, const char* what, SweepGrid& g);

/// Field-list visitor reading every field from one JSON object.
struct JsonReader {
  const JsonValue& obj;

  template <typename T>
  void operator()(const char* key, T&& field) {
    get(member(obj, key), key, field);
  }
};

void get(const JsonValue& v, const char*, SweepGrid& g) {
  grid_fields(g, JsonReader{v});
}

/// A cell as the document declares it: coordinates and aggregate.
CellSummary read_cell(const JsonValue& v) {
  CellSummary cell;
  cell_fields(cell, JsonReader{v});
  aggregate_fields(cell.agg, JsonReader{member(v, "aggregate")});
  return cell;
}

}  // namespace

ShardResult load_shard_json(std::string_view json) {
  JsonParser parser(json);
  const JsonValue root = parser.parse_document();
  if (root.kind != JsonValue::Kind::kObject) {
    throw ShardError("shard document must be a JSON object");
  }
  if (as_string(member(root, "format"), "format") != kShardFormatName) {
    throw ShardError("not an rtft-shard document (format field differs)");
  }
  std::int64_t version = 0;
  get(member(root, "version"), "version", version);
  if (version != kShardFormatVersion) {
    throw ShardError("unsupported rtft-shard version " +
                     std::to_string(version) + " (this build reads version " +
                     std::to_string(kShardFormatVersion) + ")");
  }

  ShardResult result;
  SweepOptions& o = result.options;
  option_fields(o, JsonReader{member(root, "options")});

  // The plan constructor is the one source of truth for option
  // validity; a file that fails it is not a usable shard.
  try {
    const SweepPlan plan(o);
    o = plan.options();
  } catch (const ContractViolation& e) {
    throw ShardError(std::string("invalid sweep options in shard file: ") +
                     e.what());
  }

  ShardSpec& s = result.shard;
  shard_spec_fields(s, JsonReader{member(root, "shard")});
  if (s.shards == 0 || s.index >= s.shards) {
    throw ShardError("shard index/count are inconsistent");
  }
  if (s.begin > s.end || s.end > o.scenario_count) {
    throw ShardError("shard range does not lie within the sweep");
  }
  // Nothing is sized from the declared grid before the document proves
  // it carries that many cells: a forged grid can declare 10^18.
  const std::size_t cells = o.grid.cell_count();
  const auto& jcells = as_array(member(root, "cells"), "cells");
  if (jcells.size() != cells) {
    throw ShardError("cell count does not match the sweep grid");
  }

  // Verdicts: the payload. Everything derivable is re-derived and
  // compared, so a shard that loads is internally consistent.
  const auto& jverdicts = as_array(member(root, "verdicts"), "verdicts");
  if (jverdicts.size() != s.count()) {
    throw ShardError("verdict count " + std::to_string(jverdicts.size()) +
                     " does not match the shard range [" +
                     std::to_string(s.begin) + ", " + std::to_string(s.end) +
                     ")");
  }
  result.verdicts.resize(jverdicts.size());
  for (std::size_t i = 0; i < jverdicts.size(); ++i) {
    ScenarioVerdict& v = result.verdicts[i];
    verdict_fields(v, JsonReader{jverdicts[i]});
    if (v.index != s.begin + static_cast<std::uint64_t>(i)) {
      throw ShardError("verdict " + std::to_string(i) +
                       " is out of index order");
    }
    if (v.seed != scenario_seed(o.base_seed, v.index)) {
      throw ShardError("verdict " + std::to_string(v.index) +
                       " carries a seed the sweep options do not derive");
    }
    if (v.cell != static_cast<std::size_t>(v.index % cells)) {
      throw ShardError("verdict " + std::to_string(v.index) +
                       " is assigned to the wrong grid cell");
    }
    // The one verdict field that is neither fingerprinted nor aggregate
    // -covered; re-derive it like seeds and cells or tampering would
    // slip into merged exports.
    if (v.target_utilization !=
        scenario_spec(o, v.index).tasks.total_utilization) {
      throw ShardError("verdict " + std::to_string(v.index) +
                       " carries a target utilization the grid does not "
                       "derive");
    }
  }

  // Declared summaries must equal the recomputation — the
  // tamper/bit-rot/version-skew check.
  detail::summarize(result);
  SweepAggregate totals;
  aggregate_fields(totals, JsonReader{member(root, "totals")});
  if (totals != result.totals) {
    throw ShardError("totals do not match the verdicts (corrupt shard file)");
  }
  for (std::size_t c = 0; c < cells; ++c) {
    if (read_cell(jcells[c]) != result.cells[c]) {
      throw ShardError("cell " + std::to_string(c) +
                       " does not match the grid and the verdicts");
    }
  }
  std::uint64_t fingerprint = 0;
  get(member(root, "fingerprint"), "fingerprint", Hex{fingerprint});
  if (fingerprint != result.fingerprint) {
    throw ShardError(
        "fingerprint does not match the verdicts (corrupt or tampered "
        "shard file)");
  }
  get(member(root, "elapsed_seconds"), "elapsed_seconds",
      result.elapsed_seconds);
  return result;
}

}  // namespace rtft::sweep
