// The sweep CLI surface as a library: the mapping between command-line
// flags and SweepOptions, its inverse (the argv a coordinator hands a
// worker process), and the bounds every scalar flag is checked against.
//
// The coordinator spawns `sweep_runner --shard i/n --emit-shard ...`
// workers, so the flag->options mapping and the options->argv mapping
// must never drift apart; keeping both in this one module, and having
// worker_argv parse its own output back, is what prevents that. The
// executables in examples/ are thin wrappers over these helpers.
//
// Every parser here rejects bad input with ArgError carrying a complete
// one-line message — non-numeric text, out-of-range values, overflow,
// malformed I/N shard requests — instead of silently misbehaving; the
// CLIs print the message verbatim and exit 2.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/sweep.hpp"

namespace rtft::sweep::cli {

/// Thrown on an invalid or out-of-range argument value. what() is a
/// complete one-line explanation naming the flag and the offending
/// value; the CLIs print it as "error: <what>" and exit 2.
class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Hard caps on the scalar flags. Far above any sensible run, low
/// enough that a typo (or an overflowed computation upstream) fails
/// loudly instead of spawning a million threads or looping for years.
inline constexpr std::uint64_t kMaxWorkers = 4096;
inline constexpr std::uint64_t kMaxHorizonPeriods = 100000;

/// Parses an unsigned decimal integer in [min, max]; rejects sign
/// characters, garbage, overflow and out-of-range values with ArgError
/// naming `flag`.
[[nodiscard]] std::uint64_t parse_u64(const char* flag,
                                      std::string_view value,
                                      std::uint64_t min, std::uint64_t max);

/// Parses a finite double > 0 (utilizations); ArgError otherwise.
[[nodiscard]] double parse_positive_double(const char* flag,
                                           std::string_view value);

/// A validated `--shard I/N` request.
struct ShardRequest {
  std::uint64_t index = 0;
  std::uint64_t count = 1;
};

/// Parses "I/N". Rejects non-numeric input, N == 0, I >= N and
/// overflow, each with its own one-line ArgError.
[[nodiscard]] ShardRequest parse_shard_request(std::string_view value);

/// Applies one sweep-defining flag (--scenarios, --workers, --seed,
/// --tasks, --util, --detector-cost-us, --stop-latency-us, --cores,
/// --quantum-us, --policy, --horizon-periods) to `opts`.
/// Returns false when `arg` is none of these — the caller handles its
/// own flags; throws ArgError on a bad value. `value` supplies the
/// flag's argument and is called at most once.
bool apply_sweep_flag(std::string_view arg,
                      const std::function<std::string()>& value,
                      SweepOptions& opts);

/// The argv for one worker process running `shard` of the sweep `opts`
/// describes: runner path, then the exact inverse of apply_sweep_flag,
/// then `--shard i/n --emit-shard emit_path --progress`. Doubles travel
/// as %.17g. The sweep flags are parsed back through apply_sweep_flag,
/// and a result whose scenario identity differs from `opts` throws
/// ContractViolation: that is how options the runner CLI cannot express
/// are refused (grid durations that are not whole microseconds, a seed
/// above the CLI's signed-integer range).
[[nodiscard]] std::vector<std::string> worker_argv(
    const std::string& runner, const SweepOptions& opts,
    const ShardSpec& shard, const std::string& emit_path);

/// A ready-made progress callback printing to stderr: the '\r'-in-place
/// human line on a terminal, machine `progress_line`s (progress.hpp) on
/// a pipe — which is how a worker's stream becomes parseable to the
/// coordinator while staying readable to a human. Updates are throttled
/// to ~1% steps (the total and any backward jump always print, so a
/// coordinator-level aggregate that regresses after a lost worker stays
/// honest). The returned callback is not thread-safe; run_shard
/// serializes on_progress invocations, which is exactly the guarantee
/// it relies on.
[[nodiscard]] std::function<void(std::uint64_t, std::uint64_t)>
stderr_progress_printer();

}  // namespace rtft::sweep::cli
