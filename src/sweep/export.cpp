#include "sweep/export.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstring>
#include <type_traits>
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

std::string shard_json(const ShardResult& shard) {
  std::string out = "{\n  \"format\": \"";
  out += kShardFormatName;
  out += "\",\n  \"version\": ";
  put(out, kShardFormatVersion);
  out += ",\n  \"options\": {";
  option_fields(shard.options, JsonMembers{out});
  out += "},\n  \"shard\": {";
  shard_spec_fields(shard.shard, JsonMembers{out});
  out += "},\n  \"totals\": ";
  put(out, shard.totals);
  out += ",\n  \"cells\": [";
  for (std::size_t c = 0; c < shard.cells.size(); ++c) {
    out += c > 0 ? ",\n    {" : "\n    {";
    JsonMembers m{out};
    m("cell", c);
    cell_fields(shard.cells[c], m);
    m("aggregate", shard.cells[c].agg);
    out += '}';
  }
  out += "\n  ],\n  \"verdicts\": [";
  for (std::size_t i = 0; i < shard.verdicts.size(); ++i) {
    out += i > 0 ? ",\n    {" : "\n    {";
    verdict_fields(shard.verdicts[i], JsonMembers{out});
    out += '}';
  }
  out += "\n  ],\n  \"fingerprint\": ";
  put(out, Hex{shard.fingerprint});
  out += ",\n  \"elapsed_seconds\": ";
  put(out, shard.elapsed_seconds);
  out += "\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Reader: one forward pass over the same field lists, so every member
// must come in writer order and each value parses straight into its
// record. The format fixes the nesting (the grid inside the options is
// its deepest point), so nothing recurses on the input, and arrays grow
// one element at a time: a load holds the result, never a tree of the
// text.
// ---------------------------------------------------------------------------

namespace {

/// A forward cursor over one document. Each read skips the whitespace
/// before it; a syntax error names its offset.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  [[noreturn]] void fail(const std::string& why) const {
    throw ShardError("shard JSON at offset " + std::to_string(pos_) + ": " +
                     why);
  }

  void skip_ws() {
    pos_ = std::min(text_.find_first_not_of(" \t\n\r", pos_), text_.size());
  }

  /// Consumes `c` if it comes next.
  bool consume(char c) {
    skip_ws();
    if (pos_ == text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + '\'');
  }

  /// A string, decoded into a buffer the next call reuses.
  std::string_view string() {
    expect('"');
    buf_.clear();
    for (;;) {
      if (pos_ == text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return buf_;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        buf_ += c;
        continue;
      }
      if (pos_ == text_.size()) fail("unterminated escape");
      switch (text_[pos_++]) {
        case '"': buf_ += '"'; break;
        case '\\': buf_ += '\\'; break;
        case '/': buf_ += '/'; break;
        case 'b': buf_ += '\b'; break;
        case 'f': buf_ += '\f'; break;
        case 'n': buf_ += '\n'; break;
        case 'r': buf_ += '\r'; break;
        case 't': buf_ += '\t'; break;
        default:
          // \uXXXX is valid JSON but the format never emits it.
          fail("unsupported string escape");
      }
    }
  }

  /// A bare token (a number, true or false): the text up to the next
  /// delimiter, checked by its reader.
  std::string_view token() {
    skip_ws();
    const std::size_t start = pos_;
    pos_ = std::min(text_.find_first_of(",]} \t\n\r", pos_), text_.size());
    if (pos_ == start) fail("expected a value");
    return text_.substr(start, pos_ - start);
  }

  /// Requires member `key` next: its name and ':', after a ',' unless
  /// it opens its object. Anything else (a missing, reordered or
  /// unknown member) fails at the offset where `key` should start.
  void member(const char* key, bool first) {
    if (first || consume(',')) {
      skip_ws();
      const std::size_t at = pos_;
      if (pos_ < text_.size() && text_[pos_] == '"' && string() == key) {
        return expect(':');
      }
      pos_ = at;
    }
    fail(std::string("expected member '") + key + '\'');
  }

  /// Bytes not yet read.
  [[nodiscard]] std::size_t remaining() const { return text_.size() - pos_; }

  /// Requires the end of the text: only whitespace may follow.
  void end() {
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after the document");
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::string buf_;
};

/// The fewest bytes a verdict object takes in an array: per member its
/// quoted key, the colon, one value byte and a separator (a comma or
/// the closing brace).
std::size_t min_verdict_bytes() {
  std::size_t bytes = 0;
  ScenarioVerdict v;
  verdict_fields(v, [&bytes](const char* key, const auto&) {
    bytes += std::strlen(key) + 5;
  });
  return bytes;
}

[[noreturn]] void field_error(const Cursor& in, const char* what,
                              const char* why) {
  in.fail(std::string("field '") + what + "': " + why);
}

// Readers, one per field type; each accepts exactly what put writes.

void get(Cursor& in, const char* what, bool& out) {
  const std::string_view t = in.token();
  if (t != "true" && t != "false") field_error(in, what, "expected a bool");
  out = t == "true";
}

/// Numbers convert from their token, so 64-bit integers and %.17g
/// doubles arrive losslessly.
template <typename T>
  requires std::is_arithmetic_v<T>
void get(Cursor& in, const char* what, T& out) {
  const std::string_view t = in.token();
  const auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), out);
  // from_chars also takes "inf" and "nan", which JSON has no room for.
  if (ec != std::errc{} || p != t.data() + t.size() ||
      !std::isfinite(static_cast<double>(out))) {
    field_error(in, what,
                std::is_floating_point_v<T> ? "expected a number"
                : std::is_signed_v<T>       ? "expected an integer"
                                            : "expected an unsigned integer");
  }
}

void get(Cursor& in, const char* what, Duration& out) {
  std::int64_t ns = 0;
  get(in, what, ns);
  out = Duration::ns(ns);
}

void get(Cursor& in, const char* what, Hex<std::uint64_t> h) {
  const std::string_view s = in.string();
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(),
                                       h.value, 16);
  if (ec != std::errc{} || p != s.data() + s.size() || s.size() > 16) {
    field_error(in, what, "expected a 64-bit hex string");
  }
}

/// The policy arrives by name; an unknown name is a defect of the file.
void get(Cursor& in, const char* what, core::TreatmentPolicy& out) {
  try {
    out = core::treatment_policy_from_string(in.string());
  } catch (const ContractViolation&) {
    field_error(in, what, "unknown name");
  }
}

/// Reads one array, calling `item` once per element, in order.
template <typename Item>
void get_array(Cursor& in, Item&& item) {
  in.expect('[');
  if (in.consume(']')) return;
  do {
    in.skip_ws();  // so an element's error names its offset.
    item();
  } while (in.consume(','));
  in.expect(']');
}

template <typename T>
void get(Cursor& in, const char* what, std::vector<T>& out) {
  out.clear();
  get_array(in, [&] { get(in, what, out.emplace_back()); });
}

/// Field-list visitor reading one object's members in writer order.
struct JsonReader {
  Cursor& in;
  bool first = true;

  void member(const char* key) {
    in.member(key, first);
    first = false;
  }

  template <typename T>
  void operator()(const char* key, T&& field) {
    member(key);
    get(in, key, field);
  }
};

/// Reads one object: exactly the members `fields` visits, then '}'.
template <typename Fields>
void get_object(Cursor& in, Fields&& fields) {
  in.expect('{');
  JsonReader members{in};
  fields(members);
  in.expect('}');
}

void get(Cursor& in, const char*, SweepGrid& g) {
  get_object(in, [&g](JsonReader& m) { grid_fields(g, m); });
}

void get(Cursor& in, const char*, SweepAggregate& a) {
  get_object(in, [&a](JsonReader& m) {
    aggregate_fields(a, m);
    double mean = 0.0;  // derived from the counters; not stored.
    m("mean_allowance_ms", mean);
  });
}

}  // namespace

ShardResult load_shard_json(std::string_view json) {
  Cursor in(json);
  in.expect('{');
  JsonReader doc{in};
  doc.member("format");
  if (in.string() != kShardFormatName) {
    throw ShardError("not an rtft-shard document (format field differs)");
  }
  std::int64_t version = 0;
  doc("version", version);
  if (version != kShardFormatVersion) {
    throw ShardError("unsupported rtft-shard version " +
                     std::to_string(version) + " (this build reads version " +
                     std::to_string(kShardFormatVersion) + ")");
  }

  ShardResult result;
  SweepOptions& o = result.options;
  doc.member("options");
  get_object(in, [&o](JsonReader& m) { option_fields(o, m); });
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
  doc.member("shard");
  get_object(in, [&s](JsonReader& m) { shard_spec_fields(s, m); });
  if (s.shards == 0 || s.index >= s.shards) {
    throw ShardError("shard index/count are inconsistent");
  }
  if (s.begin > s.end || s.end > o.scenario_count) {
    throw ShardError("shard range does not lie within the sweep");
  }
  SweepAggregate totals;
  doc("totals", totals);

  // Cells grow one at a time and stop at the grid's count: nothing is
  // sized from a grid that a forged file can declare 10^18 cells wide.
  const std::size_t cells = o.grid.cell_count();
  std::vector<CellSummary> declared_cells;
  doc.member("cells");
  get_array(in, [&] {
    if (declared_cells.size() == cells) {
      in.fail("more cells than the sweep grid has");
    }
    CellSummary& cell = declared_cells.emplace_back();
    get_object(in, [&cell](JsonReader& m) {
      std::size_t index = 0;  // the cell's position; not stored.
      m("cell", index);
      cell_fields(cell, m);
      m("aggregate", cell.agg);
    });
  });
  if (declared_cells.size() != cells) {
    throw ShardError("cell count does not match the sweep grid");
  }

  // Verdicts: the payload, checked as each arrives. Everything derivable
  // is re-derived and compared, so a shard that loads is internally
  // consistent. The range sizes the result, as far as the text left can
  // hold verdicts: a forged range reserves no more than that.
  doc.member("verdicts");
  result.verdicts.reserve(std::min<std::uint64_t>(
      s.count(), in.remaining() / min_verdict_bytes()));
  get_array(in, [&] {
    if (result.verdicts.size() == s.count()) {
      in.fail("more verdicts than the shard range [" +
              std::to_string(s.begin) + ", " + std::to_string(s.end) +
              ") holds");
    }
    const std::uint64_t index = s.begin + result.verdicts.size();
    ScenarioVerdict& v = result.verdicts.emplace_back();
    get_object(in, [&v](JsonReader& m) { verdict_fields(v, m); });
    if (v.index != index) {
      throw ShardError("verdict " + std::to_string(index - s.begin) +
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
  });
  if (result.verdicts.size() != s.count()) {
    throw ShardError("verdict count " + std::to_string(result.verdicts.size()) +
                     " does not match the shard range [" +
                     std::to_string(s.begin) + ", " + std::to_string(s.end) +
                     ")");
  }
  std::uint64_t fingerprint = 0;
  doc("fingerprint", Hex{fingerprint});
  doc("elapsed_seconds", result.elapsed_seconds);
  in.expect('}');
  in.end();

  // Declared summaries must equal the recomputation — the
  // tamper/bit-rot/version-skew check.
  detail::summarize(result);
  if (totals != result.totals) {
    throw ShardError("totals do not match the verdicts (corrupt shard file)");
  }
  for (std::size_t c = 0; c < cells; ++c) {
    if (declared_cells[c] != result.cells[c]) {
      throw ShardError("cell " + std::to_string(c) +
                       " does not match the grid and the verdicts");
    }
  }
  if (fingerprint != result.fingerprint) {
    throw ShardError(
        "fingerprint does not match the verdicts (corrupt or tampered "
        "shard file)");
  }
  return result;
}

}  // namespace rtft::sweep
