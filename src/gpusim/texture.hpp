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
    const int x0 = static_cast<int>(std::floor(fx));
    const int y0 = static_cast<int>(std::floor(fy));
    const int z0 = static_cast<int>(std::floor(fz));
    const float tx = fx - static_cast<float>(x0);
    const float ty = fy - static_cast<float>(y0);
    const float tz = fz - static_cast<float>(z0);

    float c000, c100, c010, c110, c001, c101, c011, c111;
    if (x0 >= 0 && y0 >= 0 && z0 >= 0 && x0 + 1 < dims_.x && y0 + 1 < dims_.y &&
        z0 + 1 < dims_.z) {
      // All eight texels are inside: read them without clamping.
      const size_t row = static_cast<size_t>(dims_.x);
      const size_t slice = row * static_cast<size_t>(dims_.y);
      const float* c = texels_ + (static_cast<size_t>(z0) * dims_.y + y0) * row + x0;
      c000 = c[0];
      c100 = c[1];
      c010 = c[row];
      c110 = c[row + 1];
      c001 = c[slice];
      c101 = c[slice + 1];
      c011 = c[slice + row];
      c111 = c[slice + row + 1];
    } else {
      c000 = fetch(x0, y0, z0);
      c100 = fetch(x0 + 1, y0, z0);
      c010 = fetch(x0, y0 + 1, z0);
      c110 = fetch(x0 + 1, y0 + 1, z0);
      c001 = fetch(x0, y0, z0 + 1);
      c101 = fetch(x0 + 1, y0, z0 + 1);
      c011 = fetch(x0, y0 + 1, z0 + 1);
      c111 = fetch(x0 + 1, y0 + 1, z0 + 1);
    }

    const float c00 = lerpf(c000, c100, tx);
    const float c10 = lerpf(c010, c110, tx);
    const float c01 = lerpf(c001, c101, tx);
    const float c11 = lerpf(c011, c111, tx);
    const float c0 = lerpf(c00, c10, ty);
    const float c1 = lerpf(c01, c11, ty);
    return lerpf(c0, c1, tz);
  }

 private:
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
    const int i0 = static_cast<int>(std::floor(x));
    const float frac = x - static_cast<float>(i0);
    const int lo = std::clamp(i0, 0, static_cast<int>(data_.size()) - 1);
    const int hi = std::clamp(i0 + 1, 0, static_cast<int>(data_.size()) - 1);
    return lerp(data_[static_cast<size_t>(lo)], data_[static_cast<size_t>(hi)], frac);
  }

 private:
  DeviceAllocation vram_;
  std::vector<Vec4> data_;
};

}  // namespace vrmr::gpusim
