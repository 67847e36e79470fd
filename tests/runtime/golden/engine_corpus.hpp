// The golden engine corpus: per-scenario hashes of what rt::Engine
// produces on scenario_fuzz.hpp seeds 1-100, free-form and quantized,
// under the corpus' injected overrun (fuzz::corpus_cost). The data lives
// in engine_corpus.inc; golden_corpus_test.cpp checks the engine against
// it and explains how to regenerate it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rtft::rt::golden {

struct CorpusEntry {
  std::uint64_t seed;
  bool quantized;
  std::uint64_t trace;     ///< fuzz::trace_hash of the Recorder trace.
  std::uint64_t stats;     ///< fuzz::stats_hash of every TaskStats.
  std::uint64_t counters;  ///< fuzz::counters_hash of a CountingSink.
  std::size_t events;      ///< trace length, for readable failures.
};

inline constexpr CorpusEntry kEngineCorpus[] = {
#include "engine_corpus.inc"
};

}  // namespace rtft::rt::golden
