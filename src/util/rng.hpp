#pragma once

// Deterministic, seedable random number generation.
//
// The reproduction must be bit-deterministic across runs (sim/engine.hpp),
// so we avoid std::random_device / global state. PCG32 is the workhorse;
// SplitMix64 derives stream seeds from a master seed.

#include <cstdint>

namespace vrmr {

/// SplitMix64: tiny, high-quality seed expander.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// PCG32 (XSH-RR variant). Small state, excellent statistical quality,
/// cheap enough for per-voxel procedural noise.
class Pcg32 {
 public:
  constexpr Pcg32() : Pcg32(0x853c49e6748fea9bULL, 0xda3e39cb94b95bdbULL) {}

  constexpr Pcg32(std::uint64_t seed, std::uint64_t stream = 1) : state_(0), inc_((stream << 1u) | 1u) {
    next_u32();
    state_ += seed;
    next_u32();
  }

  constexpr std::uint32_t next_u32() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  constexpr std::uint64_t next_u64() {
    return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  }

  /// Uniform in [0, 1).
  constexpr float next_float() {
    return static_cast<float>(next_u32() >> 8) * (1.0f / 16777216.0f);
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() {
    return static_cast<double>(next_u64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform in [lo, hi).
  constexpr float uniform(float lo, float hi) { return lo + (hi - lo) * next_float(); }

  /// Unbiased uniform integer in [0, bound) via Lemire rejection.
  constexpr std::uint32_t next_below(std::uint32_t bound) {
    if (bound == 0) return 0;
    const std::uint32_t threshold = (0u - bound) % bound;
    for (;;) {
      const std::uint32_t r = next_u32();
      if (r >= threshold) return r % bound;
    }
  }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// Integer hash usable as stateless per-cell noise (procedural volumes).
constexpr std::uint32_t hash_u32(std::uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

/// Hash three lattice coordinates + seed into [0, 1).
constexpr float lattice_noise(int x, int y, int z, std::uint32_t seed) {
  std::uint32_t h = seed;
  h = hash_u32(h ^ static_cast<std::uint32_t>(x) * 0x8da6b343U);
  h = hash_u32(h ^ static_cast<std::uint32_t>(y) * 0xd8163841U);
  h = hash_u32(h ^ static_cast<std::uint32_t>(z) * 0xcb1ab31fU);
  return static_cast<float>(h >> 8) * (1.0f / 16777216.0f);
}

}  // namespace vrmr
