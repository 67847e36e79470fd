// FNV-1a (64-bit) over 64-bit words, the one hash behind the sweep
// fingerprint, the canonical task-set key and the verdict-cache
// checksum. Each word is folded byte by byte, least significant first;
// any change here moves both pinned sweep fingerprints.
#pragma once

#include <bit>
#include <cstdint>

namespace rtft {

/// The FNV-1a 64 offset basis: the state before anything is folded in.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// Folds the eight bytes of `v` into `h`.
constexpr void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
}

/// The IEEE-754 bits of `d`, so a double hashes exactly.
constexpr std::uint64_t bits_of(double d) {
  return std::bit_cast<std::uint64_t>(d);
}

}  // namespace rtft
