// Occupancy metadata + TF classification (src/lod/occupancy.hpp):
// brick/cell interval coverage, the conservative baked-table emptiness
// rule (checked against Texture1D::sample's exact lerp semantics), the
// empty-cell fraction, the decimation-aware cullable() rule and the
// per-(volume, layout, TF) classification memoization.

#include "lod/occupancy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "volren/bricking.hpp"
#include "volren/transfer_function.hpp"
#include "volren/volume.hpp"

namespace vrmr::lod {
namespace {

volren::BrickLayout layout_for(const volren::Volume& volume, int brick_size) {
  return volren::BrickLayout(volume.dims(), volume.world_extent(),
                             Int3{brick_size, brick_size, brick_size},
                             /*ghost=*/1);
}

/// Alpha zero on [0, 0.5], ramping opaque above — values below the knee
/// are provably invisible.
volren::TransferFunction low_cut_tf() {
  return volren::TransferFunction(
      {{0.0f, Vec4{0, 0, 0, 0}},
       {0.5f, Vec4{0, 0, 0, 0}},
       {0.6f, Vec4{1, 1, 1, 0.4f}},
       {1.0f, Vec4{1, 1, 1, 0.9f}}});
}

/// Two-zone field: 0.1 in the low corner octant (x, y, z < 33), 0.8
/// beyond. With 16^3 bricks over 48^3 the 8 corner bricks' padded
/// regions (max stored coordinate 32) lie wholly in the low zone.
volren::Volume octant_volume() {
  return volren::Volume::procedural("octant", {48, 48, 48}, [](Int3 p) {
    return (p.x < 33 && p.y < 33 && p.z < 33) ? 0.1f : 0.8f;
  });
}

/// Texture1D::sample's exact arithmetic on a baked table (alpha only).
float sampled_alpha(const std::vector<Vec4>& table, float t) {
  const int n = static_cast<int>(table.size());
  const float x = clampf(t, 0.0f, 1.0f) * static_cast<float>(n) - 0.5f;
  const int i0 = static_cast<int>(std::floor(x));
  const float frac = x - static_cast<float>(i0);
  const int lo = std::clamp(i0, 0, n - 1);
  const int hi = std::clamp(i0 + 1, 0, n - 1);
  return lerpf(table[static_cast<std::size_t>(lo)].w,
               table[static_cast<std::size_t>(hi)].w, frac);
}

TEST(OccupancyIndex, BrickAndCellIntervalsCoverEveryStoredVoxel) {
  // A field with full spatial variation so every interval is nontrivial.
  const volren::Volume volume =
      volren::Volume::procedural("ramp", {24, 24, 24}, [](Int3 p) {
        return static_cast<float>(p.x + 31 * p.y + 7 * p.z) / 1000.0f;
      });
  const volren::BrickLayout layout = layout_for(volume, 12);
  const OccupancyIndex index(volume, layout);
  ASSERT_EQ(index.num_bricks(), layout.num_bricks());
  EXPECT_TRUE(index.exact());

  for (const volren::BrickInfo& info : layout.bricks()) {
    float mn = 1e30f, mx = -1e30f;
    for (int z = 0; z < info.padded_dims.z; ++z)
      for (int y = 0; y < info.padded_dims.y; ++y)
        for (int x = 0; x < info.padded_dims.x; ++x) {
          const float v =
              volume.voxel_clamped(info.padded_origin + Int3{x, y, z});
          mn = std::min(mn, v);
          mx = std::max(mx, v);
        }
    const BrickOccupancy& occ = index.brick(info.id);
    EXPECT_EQ(occ.min_value, mn) << "brick " << info.id;
    EXPECT_EQ(occ.max_value, mx) << "brick " << info.id;
    // Every cell interval is within the brick interval, and their union
    // reaches both extremes (no stored voxel escapes every cell).
    ASSERT_EQ(occ.cell_min.size(),
              static_cast<std::size_t>(occ.cells.volume()));
    for (std::size_t c = 0; c < occ.cell_min.size(); ++c) {
      EXPECT_GE(occ.cell_min[c], mn);
      EXPECT_LE(occ.cell_max[c], mx);
      EXPECT_LE(occ.cell_min[c], occ.cell_max[c]);
    }
  }
}

TEST(Classification, TfTransparentBricksAreFoundExactly) {
  const volren::Volume volume = octant_volume();
  const volren::BrickLayout layout = layout_for(volume, 16);
  const OccupancyIndex index(volume, layout);
  const TfClassification cls = classify(index, low_cut_tf());

  EXPECT_TRUE(cls.exact);
  EXPECT_EQ(cls.table_entries, 256);
  EXPECT_EQ(cls.tf_signature, low_cut_tf().signature());
  // Exactly the 8 low-corner bricks are empty (their padded regions
  // never touch the 0.8 zone); every brick touching 0.8 is not.
  EXPECT_EQ(cls.bricks_empty_hull, 8);
  EXPECT_EQ(cls.bricks_empty_cells, 8);
  ASSERT_EQ(static_cast<int>(cls.bricks.size()), layout.num_bricks());
  for (const volren::BrickInfo& info : layout.bricks()) {
    const bool low_corner = info.grid_pos.x <= 1 && info.grid_pos.y <= 1 &&
                            info.grid_pos.z <= 1;
    EXPECT_EQ(cls.bricks[static_cast<std::size_t>(info.id)].empty_hull,
              low_corner)
        << "brick " << info.id;
    // empty_hull implies empty_cells (cell intervals are sub-intervals).
    if (cls.bricks[static_cast<std::size_t>(info.id)].empty_hull) {
      EXPECT_TRUE(cls.bricks[static_cast<std::size_t>(info.id)].empty_cells);
    }
  }
}

TEST(Classification, EmptyHullIsSoundAgainstTheBakedTableLerp) {
  // The soundness claim culling rests on: for an empty-classified
  // brick, EVERY normalized scalar in [min, max] samples to alpha
  // exactly 0 under Texture1D's own lerp arithmetic.
  const volren::Volume volume = octant_volume();
  const volren::BrickLayout layout = layout_for(volume, 16);
  const OccupancyIndex index(volume, layout);
  const volren::TransferFunction tf = low_cut_tf();
  const TfClassification cls = classify(index, tf);
  const std::vector<Vec4> table = tf.bake(256);

  int checked = 0;
  for (int id = 0; id < index.num_bricks(); ++id) {
    if (!cls.bricks[static_cast<std::size_t>(id)].empty_hull) continue;
    const BrickOccupancy& occ = index.brick(id);
    for (int i = 0; i <= 1000; ++i) {
      const float t = occ.min_value + (occ.max_value - occ.min_value) *
                                          static_cast<float>(i) / 1000.0f;
      ASSERT_EQ(sampled_alpha(table, t), 0.0f) << "brick " << id << " t=" << t;
    }
    ++checked;
  }
  EXPECT_EQ(checked, 8);
}

TEST(Classification, EmptyCellFractionCountsTfEmptyCells) {
  // One brick (the whole volume) with a hot core: some cells are
  // TF-empty, some are not.
  const volren::Volume hotcore =
      volren::Volume::procedural("hotcore", {32, 32, 32}, [](Int3 p) {
        const bool hot = p.x >= 12 && p.x <= 19 && p.y >= 12 && p.y <= 19 &&
                         p.z >= 12 && p.z <= 19;
        return hot ? 0.9f : 0.1f;
      });
  const TfClassification mixed =
      classify(OccupancyIndex(hotcore, layout_for(hotcore, 32), /*cell_voxels=*/4),
               low_cut_tf());
  EXPECT_FALSE(mixed.bricks[0].empty_cells);
  EXPECT_GT(mixed.bricks[0].empty_cell_fraction, 0.0f);
  EXPECT_LT(mixed.bricks[0].empty_cell_fraction, 1.0f);

  // A flat field below the TF knee: every cell is empty.
  const volren::Volume flat =
      volren::Volume::procedural("flat", {16, 16, 16}, [](Int3) { return 0.1f; });
  const TfClassification empty =
      classify(OccupancyIndex(flat, layout_for(flat, 16), /*cell_voxels=*/4),
               low_cut_tf());
  EXPECT_TRUE(empty.bricks[0].empty_cells);
  EXPECT_EQ(empty.bricks[0].empty_cell_fraction, 1.0f);
}

TEST(Classification, SubsampledScansNeverCull) {
  // A stride-2 scan could miss the one voxel that matters; the index is
  // metadata-only and cullable() must refuse it even for bricks the
  // subsample happens to classify empty.
  const volren::Volume volume = octant_volume();
  const volren::BrickLayout layout = layout_for(volume, 16);
  const OccupancyIndex coarse(volume, layout, /*cell_voxels=*/8,
                              /*build_stride=*/2);
  EXPECT_FALSE(coarse.exact());
  const TfClassification cls = classify(coarse, low_cut_tf());
  EXPECT_FALSE(cls.exact);
  EXPECT_GT(cls.bricks_empty_hull, 0);  // it still *classifies*...
  for (int id = 0; id < layout.num_bricks(); ++id) {
    EXPECT_FALSE(cls.cullable(id, 1));  // ...but never licenses a cull
    EXPECT_FALSE(cls.cullable(id, 2));
  }
}

TEST(Classification, CullableAppliesTheDecimationRule) {
  // Unit-check the rule on a hand-built classification: the fine
  // per-cell verdict is only sound at decimation == 1 (a decimated
  // support pair can straddle cells); the hull verdict holds at any
  // decimation.
  TfClassification cls;
  cls.exact = true;
  cls.bricks.resize(2);
  cls.bricks[0].empty_hull = true;   // implies empty at every decimation
  cls.bricks[0].empty_cells = true;
  cls.bricks[1].empty_hull = false;  // cell-empty only
  cls.bricks[1].empty_cells = true;
  EXPECT_TRUE(cls.cullable(0, 1));
  EXPECT_TRUE(cls.cullable(0, 4));
  EXPECT_TRUE(cls.cullable(1, 1));
  EXPECT_FALSE(cls.cullable(1, 4));
}

TEST(ClassificationCache, MemoizesPerVolumeLayoutAndTfSignature) {
  const volren::Volume volume = octant_volume();
  const volren::BrickLayout layout = layout_for(volume, 16);
  const OccupancyIndex index(volume, layout);
  const std::uint64_t sig = layout.signature();
  ClassificationCache cache;
  EXPECT_EQ(cache.classifications_built(), 0u);

  const auto first = cache.lookup_or_build(7, sig, index, low_cut_tf());
  EXPECT_EQ(cache.classifications_built(), 1u);
  // Same (volume, layout, TF): the cached object itself, no rebuild —
  // an equal-by-value TransferFunction reconstructed per frame still
  // hits (the signature is content-addressed, not identity-addressed).
  const auto second = cache.lookup_or_build(7, sig, index, low_cut_tf());
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(cache.classifications_built(), 1u);

  // A different TF is a different classification.
  const auto bone = cache.lookup_or_build(
      7, sig, index, volren::TransferFunction::bone());
  EXPECT_NE(bone.get(), first.get());
  EXPECT_EQ(cache.classifications_built(), 2u);
  // A different volume id never shares entries.
  (void)cache.lookup_or_build(8, sig, index, low_cut_tf());
  EXPECT_EQ(cache.classifications_built(), 3u);

  // Invalidation drops exactly that volume's entries.
  cache.invalidate_volume(7);
  (void)cache.lookup_or_build(8, sig, index, low_cut_tf());
  EXPECT_EQ(cache.classifications_built(), 3u);  // 8 survived
  (void)cache.lookup_or_build(7, sig, index, low_cut_tf());
  EXPECT_EQ(cache.classifications_built(), 4u);  // 7 rebuilt
}

TEST(TransferFunctionIdentity, SignatureAndEqualityFollowThePointTable) {
  using volren::TransferFunction;
  EXPECT_TRUE(TransferFunction::bone() == TransferFunction::bone());
  EXPECT_EQ(TransferFunction::bone().signature(),
            TransferFunction::bone().signature());
  EXPECT_FALSE(TransferFunction::bone() == TransferFunction::fire());
  EXPECT_NE(TransferFunction::bone().signature(),
            TransferFunction::fire().signature());

  // A one-ULP-scale nudge to a single control point changes identity
  // (the signature hashes raw float bits — no tolerance).
  std::vector<volren::TransferPoint> points = TransferFunction::bone().points();
  points.back().rgba.w += 1e-6f;
  const TransferFunction nudged(std::move(points));
  EXPECT_FALSE(nudged == TransferFunction::bone());
  EXPECT_NE(nudged.signature(), TransferFunction::bone().signature());
}

}  // namespace
}  // namespace vrmr::lod
