// Worker progress protocol — the stderr stream a sweep worker emits
// under --progress, and the incremental parser a coordinator turns that
// stream back into counts with.
//
// A worker whose stderr is a pipe prints one machine line per update,
//
//   progress <done>/<total>\n
//
// and that is the only form parse_progress_token accepts: a coordinator
// reads worker stderr through a pipe, so the '\r'-overwritten human line
// a worker prints on a terminal never reaches a parser. run_shard
// serializes on_progress invocations and guarantees `done` is strictly
// increasing (sweep.hpp), so a parsed stream is monotone per worker; a
// lower value after a higher one means a new worker attempt took over
// the range.
//
// ProgressParser is the pipe-side half: feed it byte chunks exactly as
// read(2) returns them — tokens split across reads, '\r' or '\n'
// delimited, interleaved with unrelated stderr noise — and it invokes a
// callback once per complete, well-formed update.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace rtft::sweep {

/// One progress observation: `done` of `total` scenarios finished in
/// the run (for a shard run, the shard).
struct ProgressUpdate {
  std::uint64_t done = 0;
  std::uint64_t total = 0;

  friend bool operator==(const ProgressUpdate&,
                         const ProgressUpdate&) = default;
};

/// The canonical machine form, newline-terminated:
/// "progress <done>/<total>\n".
[[nodiscard]] std::string progress_line(const ProgressUpdate& update);

/// Parses one delimiter-free token in the machine form, with or without
/// its trailing newline. Returns false — leaving `out` untouched — for
/// anything else, including the human terminal form, done > total or
/// numbers that overflow.
[[nodiscard]] bool parse_progress_token(std::string_view token,
                                        ProgressUpdate& out);

/// Incremental stream parser for one worker's stderr. feed() splits on
/// '\r' and '\n', buffers a trailing partial token across calls, skips
/// tokens that are not progress updates (a worker is free to mix other
/// diagnostics into stderr), and invokes the callback once per parsed
/// update, in stream order.
class ProgressParser {
 public:
  using Callback = std::function<void(const ProgressUpdate&)>;

  /// Consumes one chunk of stream bytes.
  void feed(std::string_view bytes, const Callback& on_update);
  /// Flushes the trailing unterminated token — call at EOF, where the
  /// final token may lack its delimiter.
  void finish(const Callback& on_update);

 private:
  std::string buffer_;  ///< trailing partial token from the last feed.
};

}  // namespace rtft::sweep
