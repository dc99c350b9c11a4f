#pragma once

// Volume bricking (the paper's "bricked input with partial-ray
// compositing", §3).
//
// The volume is cut into a regular grid of core regions of
// `brick_size` voxels per side (edge bricks may be smaller). Each brick
// stores a one-voxel ghost shell around its core (clamped at volume
// faces) so trilinear sampling is continuous across brick boundaries —
// this is what makes the MapReduce render bit-match the single-pass
// reference (tests/volren/test_pipeline_equivalence.cpp). Core regions
// tile the volume exactly; ray
// ownership of samples uses half-open [enter, exit) intervals, so every
// sample belongs to exactly one brick.

#include <cstdint>
#include <vector>

#include "util/aabb.hpp"
#include "util/check.hpp"
#include "util/vec.hpp"

namespace vrmr::volren {

struct BrickInfo {
  int id = 0;
  Int3 grid_pos;      // position in the brick grid
  Int3 core_origin;   // first core voxel (logical coordinates)
  Int3 core_dims;     // core voxels (<= brick_size per axis)
  Int3 padded_origin; // first stored voxel incl. ghost (clamped)
  Int3 padded_dims;   // stored voxels incl. ghost
  Aabb world_box;     // world-space box of the core region

  std::int64_t core_voxels() const { return core_dims.volume(); }
  std::int64_t padded_voxels() const { return padded_dims.volume(); }

  /// Logical bytes staged to the GPU for this brick (ghost included).
  std::uint64_t device_bytes() const {
    return static_cast<std::uint64_t>(padded_voxels()) * sizeof(float);
  }
};

class BrickLayout {
 public:
  /// `volume_dims` in voxels; `world_extent` the volume's world box
  /// size; `brick_size` core voxels per side (cubic bricks); `ghost`
  /// shell thickness.
  BrickLayout(Int3 volume_dims, Vec3 world_extent, int brick_size, int ghost = 1);

  /// Anisotropic bricks: per-axis core sizes. This is how the paper's
  /// "1024³ split into two bricks" configurations decompose — brick
  /// counts can track GPU counts exactly (16 bricks = 4x2x2) instead of
  /// jumping by 8x as cubic halving would.
  BrickLayout(Int3 volume_dims, Vec3 world_extent, Int3 brick_dims, int ghost = 1);

  Int3 grid_dims() const { return grid_; }
  int brick_size() const { return brick_size_; }
  Int3 brick_dims() const { return brick_dims_; }
  int ghost() const { return ghost_; }
  int num_bricks() const { return static_cast<int>(bricks_.size()); }

  const BrickInfo& brick(int id) const { return bricks_.at(static_cast<size_t>(id)); }
  const std::vector<BrickInfo>& bricks() const { return bricks_; }

  /// Brick id at grid coordinates.
  int brick_id(Int3 grid_pos) const {
    return (grid_pos.z * grid_.y + grid_pos.y) * grid_.x + grid_pos.x;
  }

  /// Stable content hash over (volume dims, brick dims, ghost) — the
  /// fields that determine every brick's stored voxel region. Used to
  /// key cached brick payloads: LOD pyramid levels of one volume and
  /// same-shaped layouts of *different-sized* volumes must never alias
  /// (brick dims alone would collide a level-1 layout with a base
  /// layout of the half-size volume).
  std::uint64_t signature() const;

  /// Smallest cubic brick size that yields at least `target_bricks`
  /// bricks (within the paper's "roughly a factor of four").
  static int choose_brick_size(Int3 volume_dims, int target_bricks);

  /// Anisotropic grid with exactly `target_bricks` bricks when the
  /// target factors cleanly (always a product of per-axis splits):
  /// repeatedly halves the currently longest brick axis. Returns the
  /// per-axis core sizes for the second constructor.
  static Int3 choose_brick_dims(Int3 volume_dims, int target_bricks);

 private:
  Int3 volume_dims_;
  Vec3 world_extent_;
  int brick_size_;
  Int3 brick_dims_;
  int ghost_;
  Int3 grid_;
  std::vector<BrickInfo> bricks_;
};

}  // namespace vrmr::volren
