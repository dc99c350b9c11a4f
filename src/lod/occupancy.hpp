#pragma once

// Per-brick occupancy metadata and its transfer-function classification.
//
// OccupancyIndex scans every padded voxel of every brick (stride 1) and
// records (a) the brick's [min, max] scalar range and (b) a coarse
// cell thumbnail of per-cell [min, max] ranges — the same shape as the
// hydrant renderer's `ThumbnailTexture<int> chebyshev` empty-space map
// (SNIPPETS.md), without its distance transform: nothing skips space
// inside a brick yet.
//
// Soundness (what lets plan_frame cull a classified-empty brick with
// bit-identical output):
//
//   * Trilinear interpolation is convex: every sample the kernel can
//     take inside a brick lies within the [min, max] of the voxels it
//     interpolates, all of which are padded voxels of that brick. A
//     stride-1 scan therefore bounds every decimated or LOD-downsampled
//     stored grid too (their voxels are subsets).
//   * A scalar interval [a, b] is "TF-empty" iff every baked-table
//     entry Texture1D::sample can touch for t in [a, b] has alpha == 0
//     — sample() lerps entries floor(t*N - 0.5) and +1 (clamped), and a
//     lerp of exact zeros is exactly zero. cast_brick emits a fragment
//     only when accumulated alpha > 0, so a brick whose every sample
//     maps to alpha 0 contributes placeholders only: culling it never
//     changes a pixel.
//   * The brick-interval test is valid at any decimation. The finer
//     per-cell test is valid only at decimation == 1: cells cover their
//     voxel ranges inclusively with one-voxel overlap, so any stride-1
//     trilinear support pair lies inside one cell — a decimated support
//     pair can straddle cells and interpolate across a value gap the
//     cells individually miss. cullable() encodes exactly this rule.
//
// Classification results are memoized by ClassificationCache per
// (volume id, layout signature, TF signature) — volume ids are never
// reused across registration generations, so the id alone carries the
// generation (the keying groundwork ROADMAP item 4's content-addressed
// tile cache builds on).

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "volren/bricking.hpp"
#include "volren/transfer_function.hpp"
#include "volren/volume.hpp"

namespace vrmr::lod {

struct BrickOccupancy {
  float min_value = 0.0f;  // over all padded voxels, stride 1
  float max_value = 0.0f;
  Int3 cells;              // thumbnail grid dims (per padded region)
  std::vector<float> cell_min;  // cells.volume() entries, x-fastest
  std::vector<float> cell_max;

  std::size_t cell_index(Int3 c) const {
    return (static_cast<std::size_t>(c.z) * cells.y + c.y) * cells.x + c.x;
  }
};

class OccupancyIndex {
 public:
  /// Scan (volume, layout): one BrickOccupancy per brick, thumbnail
  /// cells of `cell_voxels` per side. `build_stride` > 1 subsamples the
  /// scan (paper-scale volumes) — the index is then approximate and
  /// exact() is false, so classification never culls from it.
  OccupancyIndex(const volren::Volume& volume, const volren::BrickLayout& layout,
                 int cell_voxels = 8, int build_stride = 1);

  bool exact() const { return build_stride_ == 1; }
  int cell_voxels() const { return cell_voxels_; }
  int num_bricks() const { return static_cast<int>(bricks_.size()); }
  const BrickOccupancy& brick(int id) const {
    return bricks_.at(static_cast<std::size_t>(id));
  }

 private:
  int cell_voxels_;
  int build_stride_;
  std::vector<BrickOccupancy> bricks_;
};

struct BrickClassification {
  /// TF-empty over the whole brick's [min, max] — sound at any
  /// decimation (interval hull covers every interpolant).
  bool empty_hull = false;
  /// Every thumbnail cell TF-empty — the finer test, sound only at
  /// decimation == 1 (implied by empty_hull).
  bool empty_cells = false;
  /// Share of thumbnail cells that are TF-empty (space-skipping
  /// potential even when the brick as a whole survives).
  float empty_cell_fraction = 0.0f;
};

/// One (volume, layout, transfer function) classification.
struct TfClassification {
  std::uint64_t tf_signature = 0;
  int table_entries = 0;
  /// False when the occupancy scan was subsampled: intervals are then
  /// estimates and cullable() always says no.
  bool exact = false;
  std::vector<BrickClassification> bricks;
  int bricks_empty_hull = 0;
  int bricks_empty_cells = 0;

  /// May plan_frame cull this brick at full LOD, given the frame's
  /// functional decimation? (Coarse-LOD bricks are never occupancy
  /// culled: a level-L ghost shell reaches 2^L base voxels past the
  /// core, beyond what the padded-region scan bounds.)
  bool cullable(int brick, int decimation) const {
    if (!exact) return false;
    const BrickClassification& b = bricks[static_cast<std::size_t>(brick)];
    return decimation == 1 ? b.empty_cells : b.empty_hull;
  }
};

/// Classify `occupancy` against `tf` baked at `table_entries` (must
/// match what RayCastMapper::init bakes: 256).
TfClassification classify(const OccupancyIndex& occupancy,
                          const volren::TransferFunction& tf,
                          int table_entries = 256);

/// Memoizes classify() per (volume id, layout signature, TF signature).
class ClassificationCache {
 public:
  /// Returns the cached classification or builds (and counts) one.
  std::shared_ptr<const TfClassification> lookup_or_build(
      std::uint64_t volume_id, std::uint64_t layout_sig,
      const OccupancyIndex& occupancy, const volren::TransferFunction& tf,
      int table_entries = 256);

  /// How many classifications were actually computed (the memoization
  /// probe: one per distinct (volume, layout, TF), never per frame).
  std::uint64_t classifications_built() const { return built_; }

  void invalidate_volume(std::uint64_t volume_id);

 private:
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
           std::shared_ptr<const TfClassification>>
      entries_;
  std::uint64_t built_ = 0;
};

}  // namespace vrmr::lod
