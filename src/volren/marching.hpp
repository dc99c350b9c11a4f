#pragma once

// The ray-marching inner loop: the single-pass reference renderer's
// loop, and the specification that each lane of the map kernel's ray
// packets (raycast.cpp) reproduces op for op. Doing the exact same
// arithmetic is what lets the equivalence tests demand near-bit-exact
// agreement, and tests/volren/test_cast_packets.cpp demand bit-exact
// agreement of the kernel with this loop.
//
// Sample grid: t_k = t_anchor + (k + 0.5)·dt, k = 0, 1, 2, …, where
// t_anchor is the ray's entry into the *volume* box (identical for
// every brick along the ray). A segment [t_enter, t_exit) owns step k
// iff t_k (computed in float, the same way the loop computes it) lies
// inside the half-open interval — so consecutive bricks partition the
// ray's steps exactly.

#include <cmath>
#include <cstdint>

#include "util/aabb.hpp"
#include "util/color.hpp"

namespace vrmr::volren {

struct MarchResult {
  Rgba color = Rgba::transparent();  // premultiplied accumulation
  std::uint64_t samples = 0;         // logical samples charged
  bool terminated_early = false;     // ERT fired inside this segment
};

/// The first step k whose t_k lies at or after t_enter. Starts two
/// steps early and advances with the same float comparison the marching
/// loop uses, so ownership decisions are bit-consistent with the
/// neighbouring segment's loop exit (see file comment).
inline std::int64_t first_step(float t_anchor, float t_enter, float dt) {
  const double guess =
      std::ceil((static_cast<double>(t_enter) - t_anchor) / dt - 0.5) - 2.0;
  std::int64_t k = guess > 0.0 ? static_cast<std::int64_t>(guess) : 0;
  while (t_anchor + (static_cast<float>(k) + 0.5f) * dt < t_enter) ++k;
  return k;
}

/// March the global sample grid across [t_enter, t_exit) of `ray`.
///
/// `sample(p)` returns the scalar at world position p; `transfer(s)`
/// the straight-alpha RGBA for scalar s. `decimation` strides the
/// functional loop while charging every logical step
/// (RaycastSettings::decimation).
template <typename SampleFn, typename TransferFn>
inline MarchResult march_ray(const Ray& ray, float t_anchor, float t_enter, float t_exit,
                             float dt, int decimation, float opacity_correction,
                             float ert_threshold, SampleFn&& sample,
                             TransferFn&& transfer) {
  MarchResult result;
  if (!(t_enter < t_exit) || dt <= 0.0f) return result;

  std::int64_t k = first_step(t_anchor, t_enter, dt);
  for (;;) {
    const float t = t_anchor + (static_cast<float>(k) + 0.5f) * dt;
    if (!(t < t_exit)) break;
    const float scalar = sample(ray.at(t));
    const Vec4 straight = transfer(scalar);
    // A transparent sample premultiplies to all zeros, and compositing
    // zeros leaves the accumulator's bits unchanged: skip the
    // arithmetic, still charge the step.
    if (straight.w > 0.0f) {
      result.color =
          composite_over(result.color, premultiply_corrected(straight, opacity_correction));
    }
    result.samples += static_cast<std::uint64_t>(decimation);
    if (result.color.a >= ert_threshold) {
      result.terminated_early = true;
      break;
    }
    k += decimation;
  }
  return result;
}

}  // namespace vrmr::volren
