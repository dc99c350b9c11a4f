#pragma once

// LOD brick pyramid: per-volume mip levels sharing the base brick grid.
//
// Level L is the base volume decimated by stride 2^L (every stride-th
// voxel, matching RaycastSettings::decimation semantics in volren/raycast.hpp),
// with its own Volume wrapper and its own BrickLayout whose brick core
// dims are the base layout's halved L times. Levels exist only while the
// halving is *exact*: every axis of both the volume dims and the brick
// core dims must be even at each step. That restriction buys the
// property everything downstream leans on:
//
//   * level grids are identical to the base grid, so brick id i names
//     the same spatial region at every level, and
//   * each level brick's world_box is bit-identical to the base
//     brick's (integer halving commutes with the float divisions that
//     produce world extents), so a frame may mix bricks of different
//     levels and the half-open [enter, exit) sample-ownership rule
//     still partitions every ray exactly — no seams, no double
//     compositing.
//
// Coarse bricks carry their own BrickInfo (and therefore their own
// device_bytes()), so BrickCache/ARC treats them as first-class tiny
// entries under the level layout's cache signature; a level-1 brick is
// ~1/8 the payload of its base brick, which is what makes coarse
// levels effectively always-resident under overload.
//
// Lifetime: the pyramid holds a pointer to the base volume and samples
// it lazily through the level wrappers — the base volume must outlive
// the pyramid (the same contract Volume already imposes on frames).

#include <cstdint>
#include <memory>
#include <vector>

#include "volren/bricking.hpp"
#include "volren/volume.hpp"

namespace vrmr::lod {

struct LodLevel {
  int level = 0;           // 0 = full resolution
  int stride = 1;          // 1 << level: base voxels per level voxel
  /// Level-resolution volume (level 0 aliases the base volume).
  std::shared_ptr<const volren::Volume> volume;
  /// Level brick decomposition: same grid as the base layout, halved
  /// brick dims, same ghost.
  std::shared_ptr<const volren::BrickLayout> layout;
  /// Distinct per level (brick dims differ), so coarse payloads never
  /// alias full-resolution cache entries.
  std::uint64_t cache_signature = 0;
  /// Sum of brick device_bytes() at this level (ghost included).
  std::uint64_t device_bytes = 0;
};

class LodPyramid {
 public:
  /// Build levels 0..N-1 for (base, base_layout). Level 0 aliases the
  /// inputs; deeper levels are added while the exact-halving invariant
  /// holds, capped at `max_levels` total. The base volume must outlive
  /// the pyramid; the layout is shared (the service passes its memoized
  /// per-frame layout).
  LodPyramid(const volren::Volume& base,
             std::shared_ptr<const volren::BrickLayout> base_layout,
             int max_levels = 4);

  /// Convenience for tests/benches: copies the layout.
  LodPyramid(const volren::Volume& base, const volren::BrickLayout& base_layout,
             int max_levels = 4)
      : LodPyramid(base,
                   std::make_shared<const volren::BrickLayout>(base_layout),
                   max_levels) {}

  const volren::Volume* base() const { return base_; }
  int num_levels() const { return static_cast<int>(levels_.size()); }
  const LodLevel& level(int l) const {
    return levels_.at(static_cast<std::size_t>(l));
  }
  /// Requested level clamped to what the pyramid actually has.
  int clamp(int lod) const {
    if (lod < 0) return 0;
    const int deepest = num_levels() - 1;
    return lod > deepest ? deepest : lod;
  }

 private:
  const volren::Volume* base_;
  std::vector<LodLevel> levels_;
};

/// Per-brick level selection. `base_level` (RenderOptions::max_lod as
/// clamped by the caller / the SLO controller) is the floor every brick
/// renders at. When `quality` < 1, a brick whose projected footprint is
/// small relative to its voxel resolution may drop further: level L+1
/// is allowed while (max core axis >> (L+1)) >= quality *
/// projected_pixels — i.e. the coarser brick still offers at least
/// `quality` voxels per screen pixel along its widest axis. quality >=
/// 1 disables the footprint path entirely (selection is exactly
/// base_level, preserving the pixel-identity guarantee at level 0).
int select_level(const LodPyramid& pyramid, const volren::BrickInfo& base_brick,
                 int projected_pixels, int base_level, float quality);

}  // namespace vrmr::lod
