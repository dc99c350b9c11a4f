#include "lod/occupancy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace vrmr::lod {

namespace {

/// Cells per axis for `n` stored voxels with width-`w` cells that cover
/// voxel ranges [c*w, c*w + w] *inclusive* (one-voxel overlap): any
/// stride-1 trilinear support pair (k, k+1) then lies wholly inside
/// cell floor(k / w).
int cells_for(int n, int w) { return n >= 2 ? (n - 2) / w + 1 : 1; }

/// True iff every baked-table entry Texture1D::sample can touch for
/// t in [a, b] has alpha exactly 0. sample() computes x = clamp(t) *
/// N - 0.5 and lerps entries floor(x) and floor(x) + 1, both clamped
/// to [0, N-1] — so the touched index range is
/// clamp(floor(a*N - 0.5)) .. clamp(floor(b*N - 0.5) + 1).
bool tf_empty_interval(const std::vector<Vec4>& table, float a, float b) {
  const int n = static_cast<int>(table.size());
  const float xa = clampf(a, 0.0f, 1.0f) * static_cast<float>(n) - 0.5f;
  const float xb = clampf(b, 0.0f, 1.0f) * static_cast<float>(n) - 0.5f;
  const int lo = std::clamp(static_cast<int>(std::floor(xa)), 0, n - 1);
  const int hi = std::clamp(static_cast<int>(std::floor(xb)) + 1, 0, n - 1);
  for (int i = lo; i <= hi; ++i) {
    if (table[static_cast<std::size_t>(i)].w != 0.0f) return false;
  }
  return true;
}

}  // namespace

OccupancyIndex::OccupancyIndex(const volren::Volume& volume,
                               const volren::BrickLayout& layout, int cell_voxels,
                               int build_stride)
    : cell_voxels_(cell_voxels), build_stride_(build_stride) {
  VRMR_CHECK(cell_voxels >= 2);
  VRMR_CHECK(build_stride >= 1);
  bricks_.reserve(static_cast<std::size_t>(layout.num_bricks()));
  for (const volren::BrickInfo& info : layout.bricks()) {
    BrickOccupancy occ;
    const Int3 n = info.padded_dims;
    occ.cells = Int3{cells_for(n.x, cell_voxels_), cells_for(n.y, cell_voxels_),
                     cells_for(n.z, cell_voxels_)};
    const std::size_t num_cells = static_cast<std::size_t>(occ.cells.volume());
    occ.cell_min.assign(num_cells, std::numeric_limits<float>::infinity());
    occ.cell_max.assign(num_cells, -std::numeric_limits<float>::infinity());

    // Inclusive, one-voxel-overlapping cell ranges: every stored voxel
    // lands in at least one cell, and boundary voxels land in two, so
    // the union of cell intervals covers the whole padded region and
    // per-cell intervals bound every stride-1 interpolant.
    for (int cz = 0; cz < occ.cells.z; ++cz) {
      const int z0 = cz * cell_voxels_;
      const int z1 = std::min(z0 + cell_voxels_, n.z - 1);
      for (int cy = 0; cy < occ.cells.y; ++cy) {
        const int y0 = cy * cell_voxels_;
        const int y1 = std::min(y0 + cell_voxels_, n.y - 1);
        for (int cx = 0; cx < occ.cells.x; ++cx) {
          const int x0 = cx * cell_voxels_;
          const int x1 = std::min(x0 + cell_voxels_, n.x - 1);
          float mn = std::numeric_limits<float>::infinity();
          float mx = -std::numeric_limits<float>::infinity();
          for (int z = z0; z <= z1; z += build_stride_)
            for (int y = y0; y <= y1; y += build_stride_)
              for (int x = x0; x <= x1; x += build_stride_) {
                const float v = volume.voxel_clamped(info.padded_origin +
                                                     Int3{x, y, z});
                mn = std::min(mn, v);
                mx = std::max(mx, v);
              }
          const std::size_t ci = occ.cell_index({cx, cy, cz});
          occ.cell_min[ci] = mn;
          occ.cell_max[ci] = mx;
        }
      }
    }
    occ.min_value = *std::min_element(occ.cell_min.begin(), occ.cell_min.end());
    occ.max_value = *std::max_element(occ.cell_max.begin(), occ.cell_max.end());
    bricks_.push_back(std::move(occ));
  }
}

TfClassification classify(const OccupancyIndex& occupancy,
                          const volren::TransferFunction& tf, int table_entries) {
  TfClassification out;
  out.tf_signature = tf.signature();
  out.table_entries = table_entries;
  out.exact = occupancy.exact();
  const std::vector<Vec4> table = tf.bake(table_entries);
  out.bricks.resize(static_cast<std::size_t>(occupancy.num_bricks()));
  for (int id = 0; id < occupancy.num_bricks(); ++id) {
    const BrickOccupancy& occ = occupancy.brick(id);
    BrickClassification& cls = out.bricks[static_cast<std::size_t>(id)];
    cls.empty_hull = tf_empty_interval(table, occ.min_value, occ.max_value);
    const std::size_t num_cells = occ.cell_min.size();
    int empties = 0;
    for (std::size_t c = 0; c < num_cells; ++c) {
      if (tf_empty_interval(table, occ.cell_min[c], occ.cell_max[c])) ++empties;
    }
    cls.empty_cells = empties == static_cast<int>(num_cells);
    cls.empty_cell_fraction =
        num_cells > 0 ? static_cast<float>(empties) / static_cast<float>(num_cells)
                      : 0.0f;
    if (cls.empty_hull) ++out.bricks_empty_hull;
    if (cls.empty_cells) ++out.bricks_empty_cells;
  }
  return out;
}

std::shared_ptr<const TfClassification> ClassificationCache::lookup_or_build(
    std::uint64_t volume_id, std::uint64_t layout_sig,
    const OccupancyIndex& occupancy, const volren::TransferFunction& tf,
    int table_entries) {
  const auto key = std::make_tuple(volume_id, layout_sig, tf.signature());
  auto it = entries_.find(key);
  if (it != entries_.end()) return it->second;
  auto built = std::make_shared<const TfClassification>(
      classify(occupancy, tf, table_entries));
  ++built_;
  entries_.emplace(key, built);
  return built;
}

void ClassificationCache::invalidate_volume(std::uint64_t volume_id) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (std::get<0>(it->first) == volume_id)
      it = entries_.erase(it);
    else
      ++it;
  }
}

}  // namespace vrmr::lod
