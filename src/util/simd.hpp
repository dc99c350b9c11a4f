#pragma once

// Four-lane float and int packets over SSE2, which every x86-64 target
// has, so no compiler flag is needed. The ray caster runs a simulated
// warp's adjacent threads as one packet (SIMT warp <-> SIMD packet, as
// in coherent packet ray tracing).
//
// Every arithmetic operator is one correctly rounded IEEE instruction
// (addps, subps, mulps, divps, sqrtps), so a packet expression written
// in the same order as a scalar one gives every lane the scalar's bits,
// provided no multiply-add pair is fused into an FMA: baseline x86-64
// has none, and the root CMakeLists.txt builds the library with
// -ffp-contract=off for targets that do. min/max keep SSE's operand
// rule, which decides ties, signed zeros and NaN:
//   min(a, b) = a < b ? a : b        max(a, b) = a > b ? a : b
// so std::max(x, y) = (x < y) ? y : x is max(y, x), and std::min(x, y)
// = (y < x) ? y : x is min(y, x).
//
// Masks are packets whose lanes are all-ones (true) or all-zeros.

#include <emmintrin.h>

namespace vrmr::simd {

struct F4 {
  __m128 v;

  F4() : v(_mm_setzero_ps()) {}
  F4(__m128 m) : v(m) {}  // implicit: operators return raw SSE results
  explicit F4(float s) : v(_mm_set1_ps(s)) {}
  /// Lanes in memory order: F4(a, b, c, d) has a in lane 0.
  F4(float a, float b, float c, float d) : v(_mm_setr_ps(a, b, c, d)) {}

  static F4 load(const float* p) { return _mm_loadu_ps(p); }
  void store(float* p) const { _mm_storeu_ps(p, v); }

  friend F4 operator+(F4 a, F4 b) { return _mm_add_ps(a.v, b.v); }
  friend F4 operator-(F4 a, F4 b) { return _mm_sub_ps(a.v, b.v); }
  friend F4 operator*(F4 a, F4 b) { return _mm_mul_ps(a.v, b.v); }
  friend F4 operator/(F4 a, F4 b) { return _mm_div_ps(a.v, b.v); }

  friend F4 operator<(F4 a, F4 b) { return _mm_cmplt_ps(a.v, b.v); }
  friend F4 operator>(F4 a, F4 b) { return _mm_cmpgt_ps(a.v, b.v); }
  friend F4 operator>=(F4 a, F4 b) { return _mm_cmpge_ps(a.v, b.v); }
  friend F4 operator==(F4 a, F4 b) { return _mm_cmpeq_ps(a.v, b.v); }
  friend F4 operator&(F4 a, F4 b) { return _mm_and_ps(a.v, b.v); }
  friend F4 operator|(F4 a, F4 b) { return _mm_or_ps(a.v, b.v); }
};

/// a < b ? a : b per lane (b on ties and NaN).
inline F4 min(F4 a, F4 b) { return _mm_min_ps(a.v, b.v); }
/// a > b ? a : b per lane (b on ties and NaN).
inline F4 max(F4 a, F4 b) { return _mm_max_ps(a.v, b.v); }
inline F4 sqrt(F4 a) { return _mm_sqrt_ps(a.v); }
/// clampf(v, lo, hi) = v < lo ? lo : (v > hi ? hi : v) per lane, NaN
/// passing through, for lo <= hi.
inline F4 clamp(F4 v, F4 lo, F4 hi) { return max(lo, min(hi, v)); }
/// mask ? a : b per lane.
inline F4 select(F4 mask, F4 a, F4 b) {
  return _mm_or_ps(_mm_and_ps(mask.v, a.v), _mm_andnot_ps(mask.v, b.v));
}
/// mask & ~drop per lane.
inline F4 and_not(F4 mask, F4 drop) { return _mm_andnot_ps(drop.v, mask.v); }
/// Bit i set when lane i of the mask is true.
inline int bits(F4 mask) { return _mm_movemask_ps(mask.v); }
/// The mask whose lane i is true when bit i of `lanes` is set.
inline F4 mask(int lanes) {
  const __m128i bit = _mm_setr_epi32(1, 2, 4, 8);
  return _mm_castsi128_ps(_mm_cmpeq_epi32(_mm_and_si128(_mm_set1_epi32(lanes), bit), bit));
}

struct I4 {
  __m128i v;

  I4(__m128i m) : v(m) {}
  explicit I4(int s) : v(_mm_set1_epi32(s)) {}
  I4(int a, int b, int c, int d) : v(_mm_setr_epi32(a, b, c, d)) {}

  static I4 load(const int* p) { return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)); }
  void store(int* p) const { _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v); }

  friend I4 operator+(I4 a, I4 b) { return _mm_add_epi32(a.v, b.v); }
};

/// Exact int -> float conversion of every lane (cvtdq2ps rounds like
/// static_cast<float>).
inline F4 to_float(I4 a) { return _mm_cvtepi32_ps(a.v); }

/// floor_to_int (util/vec.hpp) per lane: truncate, then add the all-ones
/// (-1) compare mask where truncation rounded up. Exact for |x| < 2^31.
inline I4 floor_to_int(F4 x) {
  const __m128i i = _mm_cvttps_epi32(x.v);
  const __m128 rounded_up = _mm_cmplt_ps(x.v, _mm_cvtepi32_ps(i));
  return _mm_add_epi32(i, _mm_castps_si128(rounded_up));
}

/// Packets of four Vec3s / Vec4s, one per lane (structure of arrays).
struct F4x3 {
  F4 x, y, z;
};
struct F4x4 {
  F4 x, y, z, w;
};

}  // namespace vrmr::simd
