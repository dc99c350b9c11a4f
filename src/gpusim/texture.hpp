#pragma once

// Texture objects with hardware-style filtering.
//
// Texture3D reproduces CUDA's cudaFilterModeLinear + cudaAddressModeClamp
// semantics for *unnormalized* coordinates: a fetch at coordinate x
// linearly interpolates the two texels bracketing (x - 0.5). The paper
// stores each brick in a 3-D float texture precisely to get these
// filtering units for free (§3.2); our renderer's cross-brick seam
// correctness (ghost voxels) depends on matching this sampling rule
// exactly, and the unit tests pin it.
//
// Texture1D is the 1-D transfer-function texture (scalar -> RGBA),
// sampled with normalized coordinates in [0, 1].

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gpusim/device.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"
#include "util/vec.hpp"

namespace vrmr::gpusim {

class Texture3D {
 public:
  /// Allocates VRAM for `dims` float voxels on `device`.
  ///
  /// `accounted_bytes` overrides how much VRAM the texture charges
  /// against the device (0 = the stored payload size). The renderer's
  /// decimated-proxy mode stores a reduced grid but must still account
  /// the *logical* brick footprint so the fit-in-VRAM restriction and
  /// out-of-core behaviour track paper-scale volumes
  /// (volren::RaycastSettings::decimation).
  Texture3D(Device& device, Int3 dims, std::uint64_t accounted_bytes = 0);

  Int3 dims() const { return dims_; }
  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(dims_.volume()) * sizeof(float);
  }

  /// Synchronous host-to-device copy of the full extent (the paper notes
  /// CUDA 3-D texture uploads forced synchronous copies; the DES layer
  /// charges this against both the PCIe link and the GPU).
  void upload(std::span<const float> voxels);

  /// The same upload without a host copy: the texture samples `voxels`
  /// in place and keeps it alive. This is how a brick payload that the
  /// host already holds is staged.
  void upload(std::shared_ptr<const std::vector<float>> voxels);

  bool uploaded() const { return texels_ != nullptr; }

  /// Point fetch with clamp addressing (voxel index space).
  float fetch(int x, int y, int z) const {
    x = std::clamp(x, 0, dims_.x - 1);
    y = std::clamp(y, 0, dims_.y - 1);
    z = std::clamp(z, 0, dims_.z - 1);
    return texels_[(static_cast<size_t>(z) * dims_.y + y) * dims_.x + x];
  }

  /// Trilinear fetch at unnormalized coordinates (CUDA linear-filter
  /// semantics: interpolates around p - 0.5) with clamp addressing.
  float sample(Vec3 p) const {
    const float fx = p.x - 0.5f;
    const float fy = p.y - 0.5f;
    const float fz = p.z - 0.5f;
    const int x0 = floor_to_int(fx);
    const int y0 = floor_to_int(fy);
    const int z0 = floor_to_int(fz);
    const float tx = fx - static_cast<float>(x0);
    const float ty = fy - static_cast<float>(y0);
    const float tz = fz - static_cast<float>(z0);
    float c[8];
    corners(x0, y0, z0, c);
    const float c00 = lerpf(c[0], c[1], tx);
    const float c10 = lerpf(c[2], c[3], tx);
    const float c01 = lerpf(c[4], c[5], tx);
    const float c11 = lerpf(c[6], c[7], tx);
    const float c0 = lerpf(c00, c10, ty);
    const float c1 = lerpf(c01, c11, ty);
    return lerpf(c0, c1, tz);
  }

  /// sample() at four points at once (a simulated warp's texture
  /// fetches), lane for lane the same IEEE operations. Only the lanes
  /// set in `lanes` (bit i = lane i) read texels; the others' results
  /// are unspecified.
  simd::F4 sample(const simd::F4x3& p, int lanes) const {
    using simd::F4;
    const F4 half(0.5f);
    const F4 fx = p.x - half;
    const F4 fy = p.y - half;
    const F4 fz = p.z - half;
    const simd::I4 x0 = simd::floor_to_int(fx);
    const simd::I4 y0 = simd::floor_to_int(fy);
    const simd::I4 z0 = simd::floor_to_int(fz);
    alignas(16) float t[4];
    (fx - simd::to_float(x0)).store(t);
    alignas(16) int ix[4], iy[4], iz[4];
    x0.store(ix);
    y0.store(iy);
    z0.store(iz);
    // Per lane, the x-lerp of the four x-pairs: [c00, c10, c01, c11].
    F4 e[4];
    for (int lane = 0; lane < 4; ++lane) {
      if ((lanes >> lane & 1) == 0) continue;
      float c[8];
      corners(ix[lane], iy[lane], iz[lane], c);
      const F4 a(c[0], c[2], c[4], c[6]);
      const F4 b(c[1], c[3], c[5], c[7]);
      e[lane] = a + (b - a) * F4(t[lane]);
    }
    _MM_TRANSPOSE4_PS(e[0].v, e[1].v, e[2].v, e[3].v);
    const F4 ty = fy - simd::to_float(y0);
    const F4 tz = fz - simd::to_float(z0);
    const F4 c0 = e[0] + (e[1] - e[0]) * ty;
    const F4 c1 = e[2] + (e[3] - e[2]) * ty;
    return c0 + (c1 - c0) * tz;
  }

 private:
  /// The eight texels (x0 + dx, y0 + dy, z0 + dz), dx, dy, dz in {0, 1},
  /// with clamp addressing, as c[4 * dz + 2 * dy + dx].
  void corners(int x0, int y0, int z0, float c[8]) const {
    const size_t row = static_cast<size_t>(dims_.x);
    const size_t slice = row * static_cast<size_t>(dims_.y);
    if (x0 >= 0 && y0 >= 0 && z0 >= 0 && x0 + 1 < dims_.x && y0 + 1 < dims_.y &&
        z0 + 1 < dims_.z) {
      // All eight texels are inside: read them without clamping.
      const float* t = texels_ + static_cast<size_t>(z0) * slice + y0 * row + x0;
      c[0] = t[0];
      c[1] = t[1];
      c[2] = t[row];
      c[3] = t[row + 1];
      c[4] = t[slice];
      c[5] = t[slice + 1];
      c[6] = t[slice + row];
      c[7] = t[slice + row + 1];
      return;
    }
    // Clamp each axis's two indices once.
    const size_t x[2] = {static_cast<size_t>(std::clamp(x0, 0, dims_.x - 1)),
                         static_cast<size_t>(std::clamp(x0 + 1, 0, dims_.x - 1))};
    const size_t y[2] = {static_cast<size_t>(std::clamp(y0, 0, dims_.y - 1)) * row,
                         static_cast<size_t>(std::clamp(y0 + 1, 0, dims_.y - 1)) * row};
    const size_t z[2] = {static_cast<size_t>(std::clamp(z0, 0, dims_.z - 1)) * slice,
                         static_cast<size_t>(std::clamp(z0 + 1, 0, dims_.z - 1)) * slice};
    for (int i = 0; i < 8; ++i) c[i] = texels_[z[i >> 2] + y[i >> 1 & 1] + x[i & 1]];
  }

  Int3 dims_;
  DeviceAllocation vram_;
  std::shared_ptr<const std::vector<float>> data_;
  const float* texels_ = nullptr;  // data_->data(), read on every fetch
};

class Texture1D {
 public:
  /// Allocates VRAM for `entries` RGBA texels.
  Texture1D(Device& device, int entries);

  int entries() const { return static_cast<int>(data_.size()); }
  std::uint64_t bytes() const { return data_.size() * sizeof(Vec4); }

  void upload(std::span<const Vec4> texels);

  /// Linear-filtered lookup at normalized coordinate t in [0, 1].
  Vec4 sample(float t) const {
    VRMR_DCHECK(!data_.empty());
    const float x = clampf(t, 0.0f, 1.0f) * static_cast<float>(data_.size()) - 0.5f;
    const int i0 = floor_to_int(x);
    const float frac = x - static_cast<float>(i0);
    const int lo = std::clamp(i0, 0, static_cast<int>(data_.size()) - 1);
    const int hi = std::clamp(i0 + 1, 0, static_cast<int>(data_.size()) - 1);
    return lerp(data_[static_cast<size_t>(lo)], data_[static_cast<size_t>(hi)], frac);
  }

  /// sample() for four lookups at once, lane for lane the same IEEE
  /// operations. Only the lanes set in `lanes` read entries; the others
  /// return zeros. Lane i of the result's x, y, z, w is lookup i's RGBA.
  simd::F4x4 sample(simd::F4 t, int lanes) const {
    using simd::F4;
    const int last = static_cast<int>(data_.size()) - 1;
    const F4 x = simd::clamp(t, F4(0.0f), F4(1.0f)) * F4(static_cast<float>(data_.size())) -
                 F4(0.5f);
    const simd::I4 i0 = simd::floor_to_int(x);
    alignas(16) float frac[4];
    (x - simd::to_float(i0)).store(frac);
    alignas(16) int i[4];
    i0.store(i);
    F4 e[4];  // lane i's RGBA (the lerp of Vec4s), then transposed
    for (int lane = 0; lane < 4; ++lane) {
      if ((lanes >> lane & 1) == 0) continue;
      const F4 lo = F4::load(&data_[static_cast<size_t>(std::clamp(i[lane], 0, last))].x);
      const F4 hi = F4::load(&data_[static_cast<size_t>(std::clamp(i[lane] + 1, 0, last))].x);
      e[lane] = lo + (hi - lo) * F4(frac[lane]);
    }
    _MM_TRANSPOSE4_PS(e[0].v, e[1].v, e[2].v, e[3].v);
    return {e[0], e[1], e[2], e[3]};
  }

 private:
  DeviceAllocation vram_;
  std::vector<Vec4> data_;
};

}  // namespace vrmr::gpusim
