#pragma once

// RGBA color type and the front-to-back "over" compositing operators
// used by both the ray-cast kernel (within a brick) and the reducer
// (across bricks). Colors are stored with *associated* (premultiplied)
// alpha, which is what makes partial-ray compositing associative: a
// chain of front-to-back composites over ordered fragments yields the
// same result as compositing the whole ray in one pass.

#include <cmath>
#include <cstdint>
#include <ostream>

#include "util/vec.hpp"

namespace vrmr {

/// Premultiplied-alpha RGBA color.
struct Rgba {
  float r = 0.0f;
  float g = 0.0f;
  float b = 0.0f;
  float a = 0.0f;

  constexpr Rgba() = default;
  constexpr Rgba(float cr, float cg, float cb, float ca) : r(cr), g(cg), b(cb), a(ca) {}
  constexpr explicit Rgba(Vec4 v) : r(v.x), g(v.y), b(v.z), a(v.w) {}

  constexpr Vec4 to_vec4() const { return {r, g, b, a}; }

  friend constexpr Rgba operator+(Rgba x, Rgba y) {
    return {x.r + y.r, x.g + y.g, x.b + y.b, x.a + y.a};
  }
  friend constexpr Rgba operator*(Rgba x, float s) {
    return {x.r * s, x.g * s, x.b * s, x.a * s};
  }
  friend constexpr bool operator==(Rgba x, Rgba y) {
    return x.r == y.r && x.g == y.g && x.b == y.b && x.a == y.a;
  }

  static constexpr Rgba transparent() { return {0.0f, 0.0f, 0.0f, 0.0f}; }
};

/// Front-to-back "over": accumulate `back` behind the already
/// accumulated `front`. Both are premultiplied. This is the fragment
/// merge used at every sample step and in the reduce phase.
constexpr Rgba composite_over(Rgba front, Rgba back) {
  const float t = 1.0f - front.a;
  return {front.r + back.r * t, front.g + back.g * t, front.b + back.b * t,
          front.a + back.a * t};
}

/// Blend an accumulated premultiplied color against an opaque
/// background, producing a displayable (non-premultiplied) RGB.
constexpr Vec3 blend_background(Rgba accum, Vec3 background) {
  const float t = 1.0f - accum.a;
  return {accum.r + background.x * t, accum.g + background.y * t,
          accum.b + background.z * t};
}

/// Convert a straight-alpha sample (e.g. a transfer-function lookup) to
/// premultiplied form, applying opacity correction for step size:
/// alpha' = 1 - (1 - alpha)^(step / base_step).
inline Rgba premultiply_corrected(Vec4 straight, float opacity_correction) {
  const float transparency = 1.0f - clampf(straight.w, 0.0f, 1.0f);
  // x^1 == x exactly, so an uncorrected step (every decimation-1 frame
  // at one sample per voxel) skips the powf with bit-identical alpha.
  const float a = 1.0f - (opacity_correction == 1.0f
                              ? transparency
                              : std::pow(transparency, opacity_correction));
  return {straight.x * a, straight.y * a, straight.z * a, a};
}

/// Straight premultiply without correction.
constexpr Rgba premultiply(Vec4 straight) {
  const float a = clampf(straight.w, 0.0f, 1.0f);
  return {straight.x * a, straight.y * a, straight.z * a, a};
}

/// Early-ray-termination threshold used by the kernel and reducer: once
/// accumulated alpha exceeds this, later samples are invisible.
inline constexpr float kOpaqueAlpha = 0.995f;

inline std::ostream& operator<<(std::ostream& os, Rgba c) {
  return os << "rgba(" << c.r << ", " << c.g << ", " << c.b << ", " << c.a << ")";
}

}  // namespace vrmr
