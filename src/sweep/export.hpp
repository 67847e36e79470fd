// Sweep results, machine-readable: two CSVs for plotting pipelines and
// one versioned JSON document for shards and reports alike.
//
//   verdicts_csv    — one row per scenario verdict (the plotting data:
//                     schedulability and allowance outcomes per
//                     scenario);
//   cells_csv       — one row per grid cell with aggregate counters;
//   shard_json      — one ShardResult as a versioned ("rtft-shard" v4)
//                     JSON document: the producing options and grid, the
//                     index range, per-cell aggregates, every verdict
//                     (the shard's fingerprint contribution — FNV-1a
//                     state is sequential, so merge re-folds verdict
//                     fields in index order), and the shard's standalone
//                     fingerprint. A SweepReport is the ShardResult of
//                     the one shard [0, n), so `sweep_runner --json`
//                     writes this same document and `--merge` reads it
//                     back;
//   load_shard_json — the inverse, in one forward pass with full
//                     validation: malformed documents, members out of
//                     writer order, foreign formats/versions, ranges
//                     that do not match the verdicts, cells or
//                     aggregates that do not match the grid and the
//                     verdicts, and fingerprint mismatches (bit rot,
//                     tampering, version skew) all throw ShardError with
//                     a message naming the defect.
//
// Each record — verdict, aggregate, cell, grid, options — has one
// field list in export.cpp that the JSON writer, the CSV writers and the
// loader all walk, so a field's name, position and encoding are defined
// once for every document. 64-bit seeds and fingerprints are emitted as
// hex strings: JSON numbers lose integer precision beyond 2^53. Doubles
// are %.17g with a '.' decimal point whatever the locale
// (common/strings.hpp: append_double), which round-trips bit-exactly — a
// loaded shard merges to the same fingerprint the in-process
// ShardResult would have.
#pragma once

#include <string>
#include <string_view>

#include "sweep/sweep.hpp"

namespace rtft::sweep {

/// One row per verdict, in index order.
[[nodiscard]] std::string verdicts_csv(const SweepReport& report);

/// One row per grid cell with its aggregate counters, in grid order.
[[nodiscard]] std::string cells_csv(const SweepReport& report);

/// The shard-file format identity. The version bumps on any change to
/// the document's structure or field semantics; the loader rejects
/// everything it was not written to understand.
inline constexpr std::string_view kShardFormatName = "rtft-shard";
/// v2 added the multicore axes (core_counts, quantizer_resolution_ns,
/// partitioner, core_fault_fraction) and the ff_*/fa_* verdict and
/// aggregate fields. v3 dropped the options' "partitioner" (the
/// multicore stage always runs both placements) and the grid's
/// deadline_min_factor, deadline_max_factor, min_period_ns and
/// max_period_ns (every set uses the generator's fixed ranges). v4
/// dropped the options' allowance_granularity_ns and
/// core_fault_fraction, now constants of every sweep.
inline constexpr std::int64_t kShardFormatVersion = 4;

/// One ShardResult as a self-contained, versioned JSON document.
[[nodiscard]] std::string shard_json(const ShardResult& shard);

/// Parses and validates a shard_json document in one forward pass:
/// members must come in the order shard_json writes them, and each
/// value parses straight into the result. Beyond syntax, the loader
/// re-derives everything derivable — verdict indices, seeds and cells
/// from the options as each verdict is read; totals, cells and the
/// fingerprint through the same detail::summarize run_shard uses — and
/// requires each to equal what the document claims, so a shard that
/// loads cleanly merges exactly like the in-process result it
/// serialized. Arrays grow one element at a time and stop at the
/// grid's cell count and the shard's range: a load's memory follows
/// the result, never a count the document declares. Throws ShardError
/// (with the defect named) on any violation.
[[nodiscard]] ShardResult load_shard_json(std::string_view json);

}  // namespace rtft::sweep
