#pragma once

// Axis-aligned bounding box and ray/box intersection (slab method).
// The ray caster intersects every ray against the brick's box and
// immediately discards non-intersecting rays, as in the paper (§3.2).

#include <algorithm>
#include <limits>

#include "util/simd.hpp"
#include "util/vec.hpp"

namespace vrmr {

/// A ray with precomputed inverse direction for slab tests.
struct Ray {
  Vec3 origin;
  Vec3 dir;  // need not be normalized; t is in units of |dir|

  Vec3 at(float t) const { return origin + dir * t; }
};

struct Aabb {
  Vec3 lo{std::numeric_limits<float>::max(), std::numeric_limits<float>::max(),
          std::numeric_limits<float>::max()};
  Vec3 hi{std::numeric_limits<float>::lowest(), std::numeric_limits<float>::lowest(),
          std::numeric_limits<float>::lowest()};

  constexpr Aabb() = default;
  constexpr Aabb(Vec3 l, Vec3 h) : lo(l), hi(h) {}

  constexpr bool empty() const { return lo.x > hi.x || lo.y > hi.y || lo.z > hi.z; }
  constexpr Vec3 extent() const { return hi - lo; }
  constexpr Vec3 center() const { return (lo + hi) * 0.5f; }

  void expand(Vec3 p) {
    lo = min(lo, p);
    hi = max(hi, p);
  }
  void expand(const Aabb& b) {
    lo = min(lo, b.lo);
    hi = max(hi, b.hi);
  }

  constexpr bool contains(Vec3 p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y && p.z >= lo.z &&
           p.z <= hi.z;
  }

  constexpr bool overlaps(const Aabb& b) const {
    return lo.x <= b.hi.x && hi.x >= b.lo.x && lo.y <= b.hi.y && hi.y >= b.lo.y &&
           lo.z <= b.hi.z && hi.z >= b.lo.z;
  }

  /// Slab-method intersection. On hit, [t_enter, t_exit] is the
  /// parametric overlap of the ray with the box, clipped to
  /// [t_min, t_max]. Returns false when the ray misses entirely.
  bool intersect(const Ray& ray, float t_min, float t_max, float* t_enter,
                 float* t_exit) const {
    float t0 = t_min;
    float t1 = t_max;
    for (int axis = 0; axis < 3; ++axis) {
      const float o = ray.origin[axis];
      const float d = ray.dir[axis];
      if (d == 0.0f) {
        // Parallel ray: miss if origin outside the slab.
        if (o < lo[axis] || o > hi[axis]) return false;
        continue;
      }
      const float inv = 1.0f / d;
      float tn = (lo[axis] - o) * inv;
      float tf = (hi[axis] - o) * inv;
      if (tn > tf) std::swap(tn, tf);
      t0 = std::max(t0, tn);
      t1 = std::min(t1, tf);
      if (t0 > t1) return false;
    }
    if (t_enter) *t_enter = t0;
    if (t_exit) *t_exit = t1;
    return true;
  }

  /// intersect() for four rays from one `origin`, lane i with direction
  /// dir[i], each lane computed with the same IEEE operations (the
  /// swap, max and min keep std::swap/max/min's operand order; see
  /// util/simd.hpp). Returns the lanes that hit (bit i = lane i);
  /// *t_enter and *t_exit hold their overlaps, other lanes' values are
  /// unspecified.
  int intersect(Vec3 origin, const simd::F4x3& dir, simd::F4 t_min, simd::F4 t_max,
                simd::F4* t_enter, simd::F4* t_exit) const {
    using simd::F4;
    const F4 dirs[3] = {dir.x, dir.y, dir.z};
    F4 t0 = t_min;
    F4 t1 = t_max;
    F4 miss;
    for (int axis = 0; axis < 3; ++axis) {
      const float o = origin[axis];
      const F4 d = dirs[axis];
      // Parallel lanes miss if the origin is outside the slab and keep
      // t0, t1 otherwise.
      const F4 parallel = d == F4(0.0f);
      if (o < lo[axis] || o > hi[axis]) miss = miss | parallel;
      const F4 inv = F4(1.0f) / d;
      const F4 tn = F4(lo[axis] - o) * inv;
      const F4 tf = F4(hi[axis] - o) * inv;
      const F4 near = simd::min(tf, tn);  // tn > tf ? tf : tn
      const F4 far = simd::max(tn, tf);   // tn > tf ? tn : tf
      t0 = simd::select(parallel, t0, simd::max(near, t0));
      t1 = simd::select(parallel, t1, simd::min(far, t1));
      miss = miss | simd::and_not(t0 > t1, parallel);
    }
    *t_enter = t0;
    *t_exit = t1;
    return ~simd::bits(miss) & 0xF;
  }
};

}  // namespace vrmr
